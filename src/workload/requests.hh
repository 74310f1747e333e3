/**
 * @file
 * SaaS LLM inference request generation.
 *
 * Each endpoint has a diurnal demand curve (token throughput) and a
 * customer population with Zipf-skewed activity, enabling both the
 * request-level simulation (Poisson arrivals with log-normal token
 * lengths) and the flow-level simulation (smooth token demand).
 */

#ifndef TAPAS_WORKLOAD_REQUESTS_HH
#define TAPAS_WORKLOAD_REQUESTS_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.hh"
#include "common/threadpool.hh"
#include "common/types.hh"
#include "llm/request.hh"

namespace tapas {

class Archive;

/** Demand shape of one SaaS inference endpoint. */
struct EndpointDemand
{
    EndpointId id;
    /** Peak aggregate token demand, tokens/s across all VMs. */
    double peakTokensPerS = 1000.0;
    /** Night-time demand as a fraction of peak. */
    double troughFraction = 0.35;
    /** Peak hour (0-24). */
    double peakHour = 14.0;
    /** Active customers issuing requests to this endpoint. */
    int customerCount = 50;
    /** Customer activity skew. */
    double customerZipfS = 1.1;
};

/** Demand burstiness: multiplicative AR-free noise per bucket. */
struct DemandNoise
{
    /** Lognormal sigma of the per-bucket demand multiplier. */
    double sigma = 0.0;
    /** Bucket width for the multiplier process. */
    SimTime bucketS = 5 * kMinute;
};

/** Token-length distribution knobs. */
struct LengthDistribution
{
    double promptLogMean = 6.0;  // exp(6) ~ 403 tokens
    double promptLogSigma = 0.7;
    int promptMin = 16;
    int promptMax = 4096;
    double outputLogMean = 4.8;  // exp(4.8) ~ 121 tokens
    double outputLogSigma = 0.6;
    int outputMin = 8;
    int outputMax = 1024;
};

/** Generates demand curves and concrete request streams. */
class RequestGenerator
{
  public:
    RequestGenerator(std::vector<EndpointDemand> endpoints,
                     const LengthDistribution &lengths,
                     std::uint64_t seed,
                     const DemandNoise &noise = DemandNoise{});

    /** Demand multiplier for an endpoint's bucket (spikes). */
    double demandMultiplier(EndpointId id, SimTime t) const;

    const std::vector<EndpointDemand> &endpoints() const
    { return endpointList; }

    /** Smooth aggregate token demand of an endpoint at time t. */
    double demandTokensPerS(EndpointId id, SimTime t) const;

    /** Mean tokens per request implied by the length distribution. */
    double meanTokensPerRequest() const;

    /**
     * Materialize Poisson request arrivals for one endpoint over
     * [from, to) into @p out. Arrival rate = demand /
     * meanTokensPerRequest. @p out is cleared and refilled, keeping
     * its capacity. Drops any outstanding prefetch: the stream goes
     * on from here.
     */
    void generate(EndpointId id, SimTime from, SimTime to,
                  std::vector<Request> &out);

    /**
     * Make every endpoint's arrivals over [from, to) readable through
     * arrivals(). The requests, their ids and the stream position
     * after the call are exactly those of one generate() per
     * endpoint, in endpoint order. Joins an outstanding prefetch and
     * serves the window from it when it covers exactly [from, to);
     * otherwise generates the window now.
     */
    void loadWindow(SimTime from, SimTime to);

    /** Endpoint @p id's arrivals in the window loaded last. */
    const std::vector<Request> &arrivals(EndpointId id) const
    { return ready[id.index]; }

    /**
     * Start generating the window that a later loadWindow(from, to)
     * will serve, as one task on @p pool (inline when null). The task
     * advances a copy of the stream, so the generator's own stream
     * state, and with it checkpointState, stays where it was until
     * that window is loaded. Call from the thread that loads
     * windows. Each buffer is reserved here, with headroom over the
     * window loaded last, so the task does not allocate.
     */
    void prefetch(SimTime from, SimTime to, ThreadPool *pool);

    /**
     * Serialize/restore the mutable stream state (arrival Rng and
     * the next request id); the demand shapes are constructor
     * inputs and do not travel. Joins an outstanding prefetch first;
     * a write keeps it (the bytes are those of a generator that never
     * prefetches), a read drops it.
     */
    void checkpointState(Archive &ar);

  private:
    // ckpt-skip(constant): demand shapes are constructor inputs
    std::vector<EndpointDemand> endpointList;
    LengthDistribution lengthDist;  // ckpt-skip(constant): ctor input
    DemandNoise noise;              // ckpt-skip(constant): ctor input
    std::uint64_t noiseSeed;        // ckpt-skip(constant): ctor input
    Rng rng;
    std::uint32_t nextRequestId = 0;
    // ckpt-skip(derived): closed-form mean of the fixed length
    // distribution, recomputed by the constructor
    double cachedMeanTokens = 0.0;
    // ckpt-skip(derived): one customer sampler per endpoint, built
    // from the fixed demand shapes by the constructor
    std::vector<ZipfSampler> customerSamplers;
    // ckpt-skip(scratch): one buffer per endpoint, the arrivals of
    // the window loaded last; a restore is followed by a load
    std::vector<std::vector<Request>> ready;
    // ckpt-skip(scratch): the prefetch task's output buffers, swapped
    // with ready when its window is loaded; a restore drops them
    std::vector<std::vector<Request>> ahead;
    // ckpt-skip(scratch): stream position after the prefetched window,
    // adopted only when that window is loaded; a restore drops it
    Rng aheadRng;
    std::uint32_t aheadNextId = 0; // ckpt-skip(scratch): as aheadRng
    SimTime aheadFrom = 0;         // ckpt-skip(scratch): as aheadRng
    SimTime aheadTo = 0;           // ckpt-skip(scratch): as aheadRng
    // ckpt-skip(scratch): the outstanding prefetch. Declared after
    // everything its task writes, so destruction joins it first. The
    // task holds this generator's address; this member also makes
    // the generator neither copyable nor movable.
    std::optional<TaskGroup> prefetchTask;

    const EndpointDemand &demand(EndpointId id) const;
    /** generate() on an explicit stream position. */
    void generateOn(Rng &stream, std::uint32_t &next_id, EndpointId id,
                    SimTime from, SimTime to,
                    std::vector<Request> &out) const;
    /** Join the prefetch, if any, and forget it. */
    void dropPrefetch();
};

} // namespace tapas

#endif // TAPAS_WORKLOAD_REQUESTS_HH
