#include "core/faults.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "dcsim/power.hh"
#include "dcsim/thermal.hh"
#include "telemetry/history.hh"

namespace tapas {

namespace {

/** Stream salts: one independent Rng per (kind, component). */
constexpr std::uint64_t kEngineSalt = 0x777;
constexpr std::uint64_t kAhuSalt = 0x777A41;
constexpr std::uint64_t kUpsSalt = 0x777B50;
constexpr std::uint64_t kChillerSalt = 0x777C60;
constexpr std::uint64_t kSensorSalt = 0x777D70;
constexpr std::uint64_t kNoiseSalt = 0x777E42;

SensorFaultKind
sensorKindFromIndex(std::int64_t i)
{
    switch (i) {
    case 0: return SensorFaultKind::Dropped;
    case 1: return SensorFaultKind::StuckAt;
    case 2: return SensorFaultKind::BiasDrift;
    default: return SensorFaultKind::NoiseBurst;
    }
}

} // namespace

FaultEngine::FaultEngine(const FaultPlan &plan,
                         const DatacenterLayout &layout_,
                         SimTime horizon, std::uint64_t seed)
    : layout(layout_)
{
    const std::uint64_t engine_seed = mixSeed(seed, kEngineSalt);
    noiseSeed = mixSeed(engine_seed, kNoiseSalt);

    aisleInstances.resize(layout.aisleCount());
    upsInstances.resize(layout.upsCount());
    serverInstances.resize(layout.serverCount());
    activeSensor.assign(layout.serverCount(), -1);
    aisleDirty.assign(layout.aisleCount(), 0);
    upsDirty.assign(layout.upsCount(), 0);

    // Stochastic renewal processes: one independent counter-derived
    // stream per component instance, so the timeline is identical
    // regardless of evaluation order, thread count, or which other
    // processes are enabled.
    for (std::size_t a = 0; a < layout.aisleCount(); ++a) {
        materializeProcess(plan.ahu, FaultKind::Ahu,
                           static_cast<std::uint32_t>(a), horizon,
                           mixSeed(engine_seed, mixSeed(kAhuSalt, a)),
                           plan);
    }
    for (std::size_t u = 0; u < layout.upsCount(); ++u) {
        materializeProcess(plan.ups, FaultKind::Ups,
                           static_cast<std::uint32_t>(u), horizon,
                           mixSeed(engine_seed, mixSeed(kUpsSalt, u)),
                           plan);
    }
    materializeProcess(plan.chiller, FaultKind::Chiller, 0, horizon,
                       mixSeed(engine_seed, kChillerSalt), plan);
    for (std::size_t s = 0; s < layout.serverCount(); ++s) {
        materializeProcess(
            plan.sensor, FaultKind::Sensor,
            static_cast<std::uint32_t>(s), horizon,
            mixSeed(engine_seed, mixSeed(kSensorSalt, s)), plan);
    }

    for (const ScriptedFault &fault : plan.scripted)
        expandScripted(fault);

    events.reserve(instances.size() * 2);
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const std::uint32_t idx = static_cast<std::uint32_t>(i);
        events.push_back({instances[i].at, idx, true});
        events.push_back({instances[i].until, idx, false});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.start != b.start)
                      return a.start; // starts before ends
                  return a.instance < b.instance;
              });
}

void
FaultEngine::addInstance(const FaultInstance &inst)
{
    if (inst.until <= inst.at)
        return;
    const std::uint32_t idx =
        static_cast<std::uint32_t>(instances.size());
    switch (inst.kind) {
    case FaultKind::Ahu:
        tapas_assert(inst.target < aisleInstances.size(),
                     "fault targets unknown aisle %u", inst.target);
        aisleInstances[inst.target].push_back(idx);
        break;
    case FaultKind::Ups:
        tapas_assert(inst.target < upsInstances.size(),
                     "fault targets unknown UPS %u", inst.target);
        upsInstances[inst.target].push_back(idx);
        break;
    case FaultKind::Chiller:
        chillerInstances.push_back(idx);
        break;
    case FaultKind::Sensor:
        tapas_assert(inst.target < serverInstances.size(),
                     "fault targets unknown server %u", inst.target);
        serverInstances[inst.target].push_back(idx);
        hasSensorFaults = true;
        break;
    }
    instances.push_back(inst);
}

void
FaultEngine::materializeProcess(const FaultProcess &proc,
                                FaultKind kind, std::uint32_t target,
                                SimTime horizon,
                                std::uint64_t stream_seed,
                                const FaultPlan &plan)
{
    if (proc.mtbfS <= 0.0 || proc.mttrS <= 0.0)
        return;
    tapas_assert(kind == FaultKind::Sensor ||
                     (proc.remainingFrac > 0.0 &&
                      proc.remainingFrac <= 1.0),
                 "fault process remainingFrac must be in (0,1]");

    Rng rng(stream_seed);
    double t = rng.exponential(1.0 / proc.mtbfS);
    while (t < static_cast<double>(horizon)) {
        const double down = rng.exponential(1.0 / proc.mttrS);

        FaultInstance inst;
        inst.at = static_cast<SimTime>(std::llround(t));
        inst.until = static_cast<SimTime>(std::llround(t + down));
        inst.kind = kind;
        inst.target = target;
        inst.remainingFrac = proc.remainingFrac;
        if (kind == FaultKind::Sensor) {
            inst.sensor =
                sensorKindFromIndex(rng.uniformInt(0, 3));
            const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
            inst.driftCPerHour = sign * plan.sensorDriftCPerHour;
            inst.driftWPerHour = sign * plan.sensorDriftWPerHour;
            inst.noiseSigmaC = plan.sensorNoiseSigmaC;
            inst.noiseSigmaW = plan.sensorNoiseSigmaW;
        }
        addInstance(inst);

        t += down;
        t += rng.exponential(1.0 / proc.mtbfS);
    }
}

void
FaultEngine::expandScripted(const ScriptedFault &fault)
{
    // Scripted windows may outlive the horizon; they are kept whole.
    if (fault.until <= fault.at)
        return;
    tapas_assert(fault.kind == FaultKind::Sensor ||
                     (fault.remainingFrac > 0.0 &&
                      fault.remainingFrac <= 1.0),
                 "scripted fault remainingFrac must be in (0,1]");

    FaultInstance base;
    base.at = fault.at;
    base.until = fault.until;
    base.kind = fault.kind;
    base.remainingFrac = fault.remainingFrac;
    base.sensor = fault.sensor;
    base.driftCPerHour = fault.driftCPerHour;
    base.driftWPerHour = fault.driftWPerHour;
    base.noiseSigmaC = fault.noiseSigmaC;
    base.noiseSigmaW = fault.noiseSigmaW;

    std::size_t fanout = 1;
    switch (fault.kind) {
    case FaultKind::Ahu: fanout = layout.aisleCount(); break;
    case FaultKind::Ups: fanout = layout.upsCount(); break;
    case FaultKind::Chiller: fanout = 1; break;
    case FaultKind::Sensor: fanout = layout.serverCount(); break;
    }
    if (fault.target >= 0 || fault.kind == FaultKind::Chiller) {
        base.target = fault.kind == FaultKind::Chiller
            ? 0
            : static_cast<std::uint32_t>(fault.target);
        addInstance(base);
        return;
    }
    for (std::size_t i = 0; i < fanout; ++i) {
        base.target = static_cast<std::uint32_t>(i);
        addInstance(base);
    }
}

double
FaultEngine::chillerFloor() const
{
    double frac = 1.0;
    for (std::uint32_t idx : chillerInstances) {
        if (instances[idx].active)
            frac = std::min(frac, instances[idx].remainingFrac);
    }
    return frac;
}

double
FaultEngine::composedAisleDerate(AisleId id) const
{
    double frac = chillerFloor();
    for (std::uint32_t idx : aisleInstances[id.index]) {
        if (instances[idx].active)
            frac = std::min(frac, instances[idx].remainingFrac);
    }
    return frac;
}

double
FaultEngine::composedUpsDerate(UpsId id) const
{
    double frac = 1.0;
    for (std::uint32_t idx : upsInstances[id.index]) {
        if (instances[idx].active)
            frac = std::min(frac, instances[idx].remainingFrac);
    }
    return frac;
}

void
FaultEngine::advanceTo(SimTime now, CoolingPlant &cooling,
                       PowerHierarchy &power)
{
    if (cursor >= events.size() || events[cursor].time > now)
        return;

    dirtyAisles.clear();
    dirtyUpses.clear();
    bool chiller_changed = false;

    while (cursor < events.size() && events[cursor].time <= now) {
        const Event &ev = events[cursor++];
        FaultInstance &inst = instances[ev.instance];
        inst.active = ev.start;
        if (ev.start)
            ++startCount;
        else
            ++endCount;

        switch (inst.kind) {
        case FaultKind::Ahu:
            if (!aisleDirty[inst.target]) {
                aisleDirty[inst.target] = 1;
                dirtyAisles.push_back(inst.target);
            }
            activeComponentFaults += ev.start ? 1 : -1;
            break;
        case FaultKind::Ups:
            if (!upsDirty[inst.target]) {
                upsDirty[inst.target] = 1;
                dirtyUpses.push_back(inst.target);
            }
            activeComponentFaults += ev.start ? 1 : -1;
            break;
        case FaultKind::Chiller:
            chiller_changed = true;
            activeComponentFaults += ev.start ? 1 : -1;
            break;
        case FaultKind::Sensor: {
            activeSensorFaults += ev.start ? 1 : -1;
            // Recompute the server's representative active fault
            // (first active by instance index: deterministic under
            // overlap).
            std::int32_t found = -1;
            for (std::uint32_t idx : serverInstances[inst.target]) {
                if (instances[idx].active) {
                    found = static_cast<std::int32_t>(idx);
                    break;
                }
            }
            activeSensor[inst.target] = found;
            break;
        }
        }
    }

    if (chiller_changed) {
        // The chiller floor feeds every aisle's composition.
        for (std::size_t a = 0; a < aisleInstances.size(); ++a) {
            const AisleId id(static_cast<std::uint32_t>(a));
            cooling.setAhuDerate(id, composedAisleDerate(id));
        }
    }
    for (std::uint32_t a : dirtyAisles) {
        if (!chiller_changed)
            cooling.setAhuDerate(AisleId(a),
                                 composedAisleDerate(AisleId(a)));
        aisleDirty[a] = 0;
    }
    dirtyAisles.clear();
    for (std::uint32_t u : dirtyUpses) {
        power.setUpsDerate(UpsId(u), composedUpsDerate(UpsId(u)));
        upsDirty[u] = 0;
    }
    dirtyUpses.clear();
}

FaultEngine::FaultInstance *
FaultEngine::activeSensorInstance(ServerId id)
{
    if (id.index >= activeSensor.size())
        return nullptr; // servers added after engine construction
    const std::int32_t idx = activeSensor[id.index];
    return idx < 0 ? nullptr : &instances[idx];
}

bool
FaultEngine::sensorFaultActive(ServerId id) const
{
    return id.index < activeSensor.size() &&
        activeSensor[id.index] >= 0;
}

SensorFaultKind
FaultEngine::sensorFaultKind(ServerId id) const
{
    tapas_assert(sensorFaultActive(id),
                 "no active sensor fault on server %u", id.index);
    return instances[activeSensor[id.index]].sensor;
}

void
FaultEngine::corruptObservedGpuPower(ServerId id, SimTime now,
                                     double *gpu_w, int gpus)
{
    FaultInstance *inst = activeSensorInstance(id);
    if (!inst)
        return;
    switch (inst->sensor) {
    case SensorFaultKind::Dropped:
    case SensorFaultKind::StuckAt:
        // A dropped feed leaves the observer holding the last value
        // it saw — observationally the same as stuck-at on this path.
        if (!inst->haveFrozenGpuW) {
            inst->frozenGpuW.assign(gpu_w, gpu_w + gpus);
            inst->haveFrozenGpuW = true;
        }
        tapas_assert(inst->frozenGpuW.size() ==
                         static_cast<std::size_t>(gpus),
                     "GPU count changed under a stuck sensor");
        std::copy(inst->frozenGpuW.begin(), inst->frozenGpuW.end(),
                  gpu_w);
        break;
    case SensorFaultKind::BiasDrift: {
        const double hours =
            static_cast<double>(now - inst->at) / 3600.0;
        // Total server-level drift spread evenly across the GPUs so
        // the observed sum drifts by driftWPerHour per hour.
        const double per_gpu =
            inst->driftWPerHour * hours / std::max(1, gpus);
        for (int g = 0; g < gpus; ++g)
            gpu_w[g] = std::max(0.0, gpu_w[g] + per_gpu);
        break;
    }
    case SensorFaultKind::NoiseBurst: {
        Rng rng(mixSeed(noiseSeed,
                        mixSeed(id.index,
                                static_cast<std::uint64_t>(now))));
        const double per_gpu_sigma =
            inst->noiseSigmaW / std::max(1, gpus);
        for (int g = 0; g < gpus; ++g) {
            gpu_w[g] = std::max(
                0.0,
                gpu_w[g] + rng.gaussianFast(0.0, per_gpu_sigma));
        }
        break;
    }
    }
}

bool
FaultEngine::corruptSample(ServerId id, SimTime now,
                           ServerSample &sample)
{
    FaultInstance *inst = activeSensorInstance(id);
    if (!inst)
        return true;
    switch (inst->sensor) {
    case SensorFaultKind::Dropped:
        return false;
    case SensorFaultKind::StuckAt:
        if (!inst->haveFrozenSample) {
            inst->frozenInletC = sample.inletC;
            inst->frozenHottestGpuC = sample.hottestGpuC;
            inst->frozenPowerW = sample.serverPowerW;
            inst->frozenGpuLoad = sample.gpuLoad;
            inst->haveFrozenSample = true;
        }
        // Server-local channels freeze; the plant-level channels
        // (outside temperature, dc load) come from other sensors.
        sample.inletC = inst->frozenInletC;
        sample.hottestGpuC = inst->frozenHottestGpuC;
        sample.serverPowerW = inst->frozenPowerW;
        sample.gpuLoad = inst->frozenGpuLoad;
        return true;
    case SensorFaultKind::BiasDrift: {
        const double hours =
            static_cast<double>(now - inst->at) / 3600.0;
        sample.inletC += static_cast<float>(
            inst->driftCPerHour * hours);
        sample.hottestGpuC += static_cast<float>(
            inst->driftCPerHour * hours);
        sample.serverPowerW = std::max(
            0.0f,
            sample.serverPowerW +
                static_cast<float>(inst->driftWPerHour * hours));
        return true;
    }
    case SensorFaultKind::NoiseBurst: {
        Rng rng(mixSeed(noiseSeed + 1,
                        mixSeed(id.index,
                                static_cast<std::uint64_t>(now))));
        sample.inletC += static_cast<float>(
            rng.gaussianFast(0.0, inst->noiseSigmaC));
        sample.hottestGpuC += static_cast<float>(
            rng.gaussianFast(0.0, inst->noiseSigmaC));
        sample.serverPowerW = std::max(
            0.0f,
            sample.serverPowerW +
                static_cast<float>(
                    rng.gaussianFast(0.0, inst->noiseSigmaW)));
        return true;
    }
    }
    return true;
}

void
FaultEngine::checkpointState(Archive &ar)
{
    std::size_t instance_count = instances.size();
    ar.count(instance_count);
    if (!ar.writing() && instance_count != instances.size()) {
        // The timeline is rebuilt from (plan, layout, horizon,
        // seed) at construction; a different instance count means
        // the checkpoint came from a different configuration.
        ar.fail();
        return;
    }
    for (FaultInstance &inst : instances) {
        ar.value(inst.active);
        ar.value(inst.haveFrozenGpuW);
        ar.podVector(inst.frozenGpuW);
        ar.value(inst.haveFrozenSample);
        ar.value(inst.frozenInletC);
        ar.value(inst.frozenHottestGpuC);
        ar.value(inst.frozenPowerW);
        ar.value(inst.frozenGpuLoad);
    }
    ar.count(cursor);
    ar.podVector(activeSensor);
    ar.count(activeComponentFaults);
    ar.count(activeSensorFaults);
    ar.count(startCount);
    ar.count(endCount);
    if (!ar.writing() && cursor > events.size())
        ar.fail();
}

} // namespace tapas
