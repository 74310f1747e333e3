#include "llm/engine.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

namespace {
/** Token-remainder tolerance for completion detection. */
constexpr double kEps = 1e-9;
/**
 * Share of GPU time prefill gets when decode also has work.
 * Production schedulers (vLLM, Orca) prioritize prefill so TTFT
 * tracks the unloaded prefill rate; decode retains a small share,
 * stretching TBT within its (much looser) SLO.
 */
constexpr double kPrefillShare = 0.9;

/** Grow @p v's capacity to at least @p need, geometrically. */
template <typename T>
void
reserveAtLeast(std::vector<T> &v, std::size_t need)
{
    if (v.capacity() < need)
        v.reserve(std::max(need, 2 * v.capacity()));
}
} // namespace

InferenceEngine::InferenceEngine(const ConfigProfile &profile,
                                 const SloSpec &slo)
    : activeProfile(profile), pendingProfile(profile), sloSpec(slo)
{
}

void
InferenceEngine::enqueue(const Request &request)
{
    tapas_assert(accepting(),
                 "enqueue on a reconfiguring engine; the router must "
                 "check accepting()");
    Active item;
    item.request = request;
    item.prefillRemaining = request.promptTokens;
    item.decodeRemaining = std::max(0, request.outputTokens - 1);
    queue.push_back(item);
    // Extends the backlog fold by one term: bit-identical to a refold.
    pendingPrefill += item.prefillRemaining;
    ++engineStats.enqueued;
    reserveForOutstanding();
}

void
InferenceEngine::reserveForOutstanding()
{
    // step() completes at most outstanding() requests and admits
    // into the running batch only up to the active or (after a
    // reload) pending batch size, so these capacities let it run
    // without growing anything; it only ever lowers outstanding()
    // and raises each sample's count() by as much.
    const std::size_t n = outstanding();
    const auto batch = static_cast<std::size_t>(
        std::max(activeProfile.config.maxBatchSize,
                 pendingProfile.config.maxBatchSize));
    reserveAtLeast(running, std::min(n, batch));
    reserveAtLeast(completions, n);
    engineStats.ttftS.reserveFor(n);
    engineStats.tbtS.reserveFor(n);
}

void
InferenceEngine::requestReconfig(const ConfigProfile &next,
                                 double reload_delay_s)
{
    if (!next.config.requiresReload(activeProfile.config)) {
        // Frequency/batch changes take effect immediately.
        activeProfile = next;
    } else {
        pendingProfile = next;
        hasPending = true;
        draining = true;
        reloadDelayS = reload_delay_s;
    }
    // A larger batch size needs room in the running batch.
    reserveForOutstanding();
}

void
InferenceEngine::beginMigration(double delay_s)
{
    pendingProfile = activeProfile;
    hasPending = true;
    draining = true;
    reloadDelayS = delay_s;
}

void
InferenceEngine::admit(double now)
{
    if (draining || inBlackout)
        return;
    const auto limit =
        static_cast<std::size_t>(activeProfile.config.maxBatchSize);
    while (!prefillActive && queueHead < queue.size() &&
           queue[queueHead].request.arrivalS <= now + kEps &&
           running.size() + 1 <= limit) {
        prefillSlot = queue[queueHead++];
        prefillActive = true;
    }
}

double
InferenceEngine::decodeRate() const
{
    const std::size_t batch = running.size();
    if (batch == 0)
        return 0.0;
    const double b = static_cast<double>(batch);
    const double tau = activeProfile.decodeWeightS +
        activeProfile.decodeKvS * b;
    return hwThrottle * b / tau;
}

void
InferenceEngine::setHardwareThrottle(double frac)
{
    tapas_assert(frac > 0.0 && frac <= 1.0,
                 "throttle fraction %f out of (0,1]", frac);
    hwThrottle = frac;
}

void
InferenceEngine::finish(Active &item, double now)
{
    CompletedRequest done;
    done.request = item.request;
    done.ttftS = item.ttftS;
    done.finishS = now;
    const int extra_tokens =
        std::max(0, item.request.outputTokens - 1);
    done.tbtS = extra_tokens > 0
        ? (now - item.firstTokenAt) / extra_tokens
        : 0.0;
    done.quality = activeProfile.quality;
    done.metSlo =
        done.ttftS <= sloSpec.ttftSloFor(item.request.promptTokens) &&
        done.tbtS <= sloSpec.tbtS;

    ++engineStats.completed;
    engineStats.qualitySum += done.quality;
    engineStats.ttftS.add(done.ttftS);
    engineStats.tbtS.add(done.tbtS);
    const double tokens = item.request.promptTokens +
        item.request.outputTokens;
    if (done.metSlo) {
        engineStats.goodputTokens += tokens;
    } else {
        ++engineStats.sloViolations;
    }
    completions.push_back(done);
}

void
InferenceEngine::maybeStartBlackout(double now)
{
    if (draining && running.empty() && !prefillActive) {
        draining = false;
        inBlackout = true;
        blackoutUntil = now + reloadDelayS;
    }
}

void
InferenceEngine::step(double from_s, double to_s)
{
    tapas_assert(to_s > from_s, "empty step [%f, %f)", from_s, to_s);
    completions.clear();

    double now = from_s;
    double busy = 0.0;
    double prefill_busy = 0.0;
    double decode_time = 0.0;
    double decode_batch_time = 0.0;

    int guard = 0;
    while (now < to_s - kEps) {
        tapas_assert(++guard < 1000000, "engine step did not converge");

        if (inBlackout) {
            if (blackoutUntil >= to_s)
                break;
            now = std::max(now, blackoutUntil);
            inBlackout = false;
            if (hasPending) {
                activeProfile = pendingProfile;
                hasPending = false;
            }
            continue;
        }

        maybeStartBlackout(now);
        if (inBlackout)
            continue;

        admit(now);

        const bool has_prefill = prefillActive;
        const bool has_decode = !running.empty();
        if (!has_prefill && !has_decode) {
            // Idle until the next queued arrival (if any) or the end
            // of the step.
            if (queueHead < queue.size() &&
                queue[queueHead].request.arrivalS < to_s) {
                now = std::max(now,
                               queue[queueHead].request.arrivalS);
                continue;
            }
            break;
        }

        const double phi = has_prefill
            ? (has_decode ? kPrefillShare : 1.0)
            : 0.0;
        const double prefill_rate =
            phi * hwThrottle * activeProfile.prefill.throughputTps;
        const double decode_share = has_decode
            ? (has_prefill ? 1.0 - kPrefillShare : 1.0)
            : 0.0;
        const double decode_total = decode_share * decodeRate();
        const double per_request = has_decode
            ? decode_total / static_cast<double>(running.size())
            : 0.0;

        // Earliest of: prefill completion, first decode completion,
        // next queued arrival, end of step.
        double dt = to_s - now;
        if (!prefillActive && queueHead < queue.size() &&
            queue[queueHead].request.arrivalS > now) {
            dt = std::min(dt,
                          queue[queueHead].request.arrivalS - now);
        }
        if (has_prefill && prefill_rate > 0.0) {
            dt = std::min(dt,
                          prefillSlot.prefillRemaining / prefill_rate);
        }
        if (has_decode && per_request > 0.0) {
            double min_remaining = 1e300;
            for (const Active &item : running) {
                min_remaining =
                    std::min(min_remaining, item.decodeRemaining);
            }
            dt = std::min(dt, min_remaining / per_request);
        }
        dt = std::max(dt, 0.0);

        if (has_prefill)
            prefillSlot.prefillRemaining -= prefill_rate * dt;
        for (Active &item : running)
            item.decodeRemaining -= per_request * dt;
        engineStats.totalTokens +=
            prefill_rate * dt + decode_total * dt;
        busy += dt;
        prefill_busy += dt * phi;
        if (has_decode) {
            decode_time += dt;
            decode_batch_time +=
                dt * static_cast<double>(running.size());
        }
        now += dt;

        // Prefill completion: first token emitted now.
        if (has_prefill && prefillSlot.prefillRemaining <= kEps) {
            prefillSlot.ttftS = now - prefillSlot.request.arrivalS;
            prefillSlot.firstTokenAt = now;
            prefillActive = false;
            if (prefillSlot.decodeRemaining <= kEps) {
                finish(prefillSlot, now);
            } else {
                running.push_back(prefillSlot);
            }
        }

        // Decode completions.
        for (std::size_t i = 0; i < running.size();) {
            if (running[i].decodeRemaining <= kEps) {
                finish(running[i], now);
                running[i] = running.back();
                running.pop_back();
            } else {
                ++i;
            }
        }
    }

    const double span = to_s - from_s;
    lastUtil = std::clamp(busy / span, 0.0, 1.0);
    lastPrefill = busy > 0.0 ? prefill_busy / busy : 0.0;
    lastBatch = decode_time > 0.0
        ? decode_batch_time / decode_time
        : 0.0;
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(queueHead));
    queueHead = 0;
    // Admission and prefill progress only happen inside step().
    refoldPendingPrefill();
}

void
InferenceEngine::refoldPendingPrefill()
{
    pendingPrefill = activePrefillRemaining();
    for (const Active &item : queue)
        pendingPrefill += item.prefillRemaining;
}

double
InferenceEngine::estimatedTtftS() const
{
    // Conservative: assume decode keeps its share of the GPU.
    const double rate = kPrefillShare * hwThrottle *
        activeProfile.prefill.throughputTps;
    return rate > 0.0 ? pendingPrefill / rate : 1e9;
}

namespace {

void
requestFields(Archive &ar, Request &r)
{
    ar.value(r.id);
    ar.value(r.endpoint);
    ar.value(r.customer);
    ar.value(r.arrivalS);
    ar.value(r.promptTokens);
    ar.value(r.outputTokens);
}

void
completedFields(Archive &ar, CompletedRequest &c)
{
    requestFields(ar, c.request);
    ar.value(c.ttftS);
    ar.value(c.tbtS);
    ar.value(c.finishS);
    ar.value(c.quality);
    ar.value(c.metSlo);
}

void
instanceConfigFields(Archive &ar, InstanceConfig &c)
{
    ar.value(c.model);
    ar.value(c.quant);
    ar.value(c.tensorParallel);
    ar.value(c.maxBatchSize);
    ar.value(c.freqFrac);
}

void
phaseProfileFields(Archive &ar, PhaseProfile &p)
{
    ar.value(p.throughputTps);
    ar.value(p.gpuPower.watts);
    ar.value(p.memBoundFrac);
}

void
configProfileFields(Archive &ar, ConfigProfile &p)
{
    instanceConfigFields(ar, p.config);
    phaseProfileFields(ar, p.prefill);
    phaseProfileFields(ar, p.decode);
    ar.value(p.decodeWeightS);
    ar.value(p.decodeKvS);
    ar.value(p.activeGpus);
    ar.value(p.quality);
    ar.value(p.unloadedTtftS);
    ar.value(p.unloadedTbtS);
    ar.value(p.capacityTps);
    ar.value(p.goodputTps);
    ar.value(p.decodePowerBatch1W);
    ar.value(p.decodePowerBatchMaxW);
}

void
sloFields(Archive &ar, SloSpec &s)
{
    ar.value(s.ttftS);
    ar.value(s.tbtS);
    ar.value(s.ttftPerPromptTokenS);
}

void
engineStatsFields(Archive &ar, EngineStats &s)
{
    ar.value(s.enqueued);
    ar.value(s.completed);
    ar.value(s.sloViolations);
    ar.value(s.totalTokens);
    ar.value(s.goodputTokens);
    ar.value(s.qualitySum);
    s.ttftS.checkpointState(ar);
    s.tbtS.checkpointState(ar);
}

} // namespace

void
InferenceEngine::checkpointState(Archive &ar)
{
    const auto active = [](Archive &a, Active &item) {
        requestFields(a, item.request);
        a.value(item.prefillRemaining);
        a.value(item.decodeRemaining);
        a.value(item.ttftS);
        a.value(item.firstTokenAt);
    };
    configProfileFields(ar, activeProfile);
    configProfileFields(ar, pendingProfile);
    sloFields(ar, sloSpec);
    ar.each(queue, active);
    ar.each(running, active);
    ar.value(prefillActive);
    active(ar, prefillSlot);
    ar.value(draining);
    ar.value(inBlackout);
    ar.value(hasPending);
    ar.value(blackoutUntil);
    ar.value(reloadDelayS);
    ar.each(completions, completedFields);
    engineStatsFields(ar, engineStats);
    ar.value(lastUtil);
    ar.value(lastPrefill);
    ar.value(lastBatch);
    ar.value(hwThrottle);
    if (!ar.writing()) {
        refoldPendingPrefill();
        reserveForOutstanding();
    }
}

} // namespace tapas
