#include "workload/requests.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace tapas {

namespace {

/** Standard normal CDF. */
double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z * M_SQRT1_2);
}

/**
 * Exact mean of clamp(X, lo, hi) for lognormal X ~ LN(mu, sigma):
 * lo * P(X <= lo) + hi * P(X >= hi) plus the truncated-lognormal
 * mass in between (closed form via the normal CDF).
 */
double
clampedLogNormalMean(double mu, double sigma, double lo, double hi)
{
    const double a = (std::log(lo) - mu) / sigma;
    const double b = (std::log(hi) - mu) / sigma;
    const double middle = std::exp(mu + 0.5 * sigma * sigma) *
        (normalCdf(b - sigma) - normalCdf(a - sigma));
    return lo * normalCdf(a) + hi * (1.0 - normalCdf(b)) + middle;
}

/** One clamped lognormal token length. */
int
sampleTokens(Rng &stream, double log_mean, double log_sigma, int lo,
             int hi)
{
    const double v = stream.logNormal(log_mean, log_sigma);
    return static_cast<int>(std::clamp(v, static_cast<double>(lo),
                                       static_cast<double>(hi)));
}

} // namespace

RequestGenerator::RequestGenerator(
    std::vector<EndpointDemand> endpoints,
    const LengthDistribution &lengths, std::uint64_t seed,
    const DemandNoise &noise_)
    : endpointList(std::move(endpoints)), lengthDist(lengths),
      noise(noise_), noiseSeed(mixSeed(seed, 0x6e6f6973ULL)),
      rng(mixSeed(seed, 0x72657173ULL))
{
    // Mean of the clamped lognormal token lengths, in closed form:
    // seed-independent (it estimates a fixed integral) and free of
    // the 20k-sample probe that used to dominate generator setup in
    // scenario sweeps.
    cachedMeanTokens =
        clampedLogNormalMean(
            lengthDist.promptLogMean, lengthDist.promptLogSigma,
            static_cast<double>(lengthDist.promptMin),
            static_cast<double>(lengthDist.promptMax)) +
        clampedLogNormalMean(
            lengthDist.outputLogMean, lengthDist.outputLogSigma,
            static_cast<double>(lengthDist.outputMin),
            static_cast<double>(lengthDist.outputMax));
    customerSamplers.reserve(endpointList.size());
    for (const EndpointDemand &ep : endpointList) {
        customerSamplers.emplace_back(ep.customerCount,
                                      ep.customerZipfS);
    }
    ready.resize(endpointList.size());
    ahead.resize(endpointList.size());
}

const EndpointDemand &
RequestGenerator::demand(EndpointId id) const
{
    tapas_assert(id.index < endpointList.size(),
                 "unknown endpoint %u", id.index);
    return endpointList[id.index];
}

double
RequestGenerator::demandMultiplier(EndpointId id, SimTime t) const
{
    if (noise.sigma <= 0.0)
        return 1.0;
    const auto bucket = static_cast<std::uint64_t>(t / noise.bucketS);
    Rng draw(mixSeed(noiseSeed,
                     mixSeed(id.index, bucket)));
    return draw.logNormal(0.0, noise.sigma);
}

double
RequestGenerator::demandTokensPerS(EndpointId id, SimTime t) const
{
    const EndpointDemand &ep = demand(id);
    const double hour =
        static_cast<double>(t % kDay) / static_cast<double>(kHour);
    const double phase =
        std::cos(2.0 * M_PI * (hour - ep.peakHour) / 24.0);
    // Map cos [-1,1] onto [trough, 1].
    const double level = ep.troughFraction +
        (1.0 - ep.troughFraction) * 0.5 * (phase + 1.0);
    return ep.peakTokensPerS * level * demandMultiplier(id, t);
}

double
RequestGenerator::meanTokensPerRequest() const
{
    return cachedMeanTokens;
}

void
RequestGenerator::generate(EndpointId id, SimTime from, SimTime to,
                           std::vector<Request> &out)
{
    dropPrefetch();
    generateOn(rng, nextRequestId, id, from, to, out);
}

void
RequestGenerator::generateOn(Rng &stream, std::uint32_t &next_id,
                             EndpointId id, SimTime from, SimTime to,
                             std::vector<Request> &out) const
{
    tapas_assert(to > from, "empty generation window");
    out.clear();
    // Thinning-free approach: piecewise-constant rate per window,
    // evaluated at the window midpoint (windows are <= minutes, far
    // shorter than the diurnal scale).
    const SimTime mid = from + (to - from) / 2;
    const double rate =
        demandTokensPerS(id, mid) / cachedMeanTokens;
    double t = static_cast<double>(from);
    if (rate <= 0.0)
        return;
    const ZipfSampler &customers = customerSamplers[id.index];
    while (true) {
        t += stream.exponential(rate);
        if (t >= static_cast<double>(to))
            break;
        Request req;
        req.id = RequestId(next_id++);
        req.endpoint = id;
        req.customer = CustomerId(static_cast<std::uint32_t>(
            customers.sample(stream) - 1));
        req.arrivalS = t;
        req.promptTokens = sampleTokens(
            stream, lengthDist.promptLogMean, lengthDist.promptLogSigma,
            lengthDist.promptMin, lengthDist.promptMax);
        req.outputTokens = sampleTokens(
            stream, lengthDist.outputLogMean, lengthDist.outputLogSigma,
            lengthDist.outputMin, lengthDist.outputMax);
        out.push_back(req);
    }
}

void
RequestGenerator::loadWindow(SimTime from, SimTime to)
{
    const bool prefetched =
        prefetchTask && aheadFrom == from && aheadTo == to;
    dropPrefetch();
    if (prefetched) {
        ready.swap(ahead);
        rng = aheadRng;
        nextRequestId = aheadNextId;
        return;
    }
    for (std::size_t e = 0; e < endpointList.size(); ++e) {
        generateOn(rng, nextRequestId, endpointList[e].id, from, to,
                   ready[e]);
    }
}

void
RequestGenerator::prefetch(SimTime from, SimTime to, ThreadPool *pool)
{
    tapas_assert(to > from, "empty generation window");
    dropPrefetch();
    // A window's count is Poisson around a slowly drifting rate, so
    // a quarter over the last one (plus a floor for near-empty
    // windows) keeps the task off the allocator. Growing only past
    // the capacity ratchets it to the largest window seen.
    for (std::size_t e = 0; e < endpointList.size(); ++e) {
        const std::size_t served = ready[e].size();
        const std::size_t want = served + served / 4 + 16;
        if (ahead[e].capacity() < want)
            ahead[e].reserve(want);
    }
    aheadRng = rng;
    aheadNextId = nextRequestId;
    aheadFrom = from;
    aheadTo = to;
    prefetchTask.emplace(pool);
    prefetchTask->run([this, from, to]() {
        for (std::size_t e = 0; e < endpointList.size(); ++e) {
            generateOn(aheadRng, aheadNextId, endpointList[e].id, from,
                       to, ahead[e]);
        }
    });
}

void
RequestGenerator::dropPrefetch()
{
    if (!prefetchTask)
        return;
    // A task that failed left its window incomplete: forget it
    // before the error propagates, so it is never served.
    try {
        prefetchTask->wait();
    } catch (...) {
        prefetchTask.reset();
        throw;
    }
    prefetchTask.reset();
}

void
RequestGenerator::checkpointState(Archive &ar)
{
    // The prefetch advanced only its own copy of the stream, so a
    // write sees the position after the window loaded last.
    if (ar.writing()) {
        if (prefetchTask)
            prefetchTask->wait();
    } else {
        dropPrefetch();
    }
    rng.checkpointState(ar);
    ar.value(nextRequestId);
}

} // namespace tapas
