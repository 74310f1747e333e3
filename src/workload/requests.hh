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
#include <vector>

#include "common/random.hh"
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
     * [from, to). Arrival rate = demand / meanTokensPerRequest.
     */
    std::vector<Request> generate(EndpointId id, SimTime from,
                                  SimTime to);

    /**
     * Pooled variant: @p out is cleared and refilled, retaining its
     * capacity across calls so steady-state request-level stepping
     * allocates nothing.
     */
    void generate(EndpointId id, SimTime from, SimTime to,
                  std::vector<Request> &out);

    /**
     * Serialize/restore the mutable stream state (arrival Rng and
     * the next request id); the demand shapes are constructor
     * inputs and do not travel.
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

    const EndpointDemand &demand(EndpointId id) const;
    int samplePromptTokens();
    int sampleOutputTokens();
};

} // namespace tapas

#endif // TAPAS_WORKLOAD_REQUESTS_HH
