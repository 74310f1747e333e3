/**
 * @file
 * LLM inference request routing (paper Section 4.2).
 *
 * BaselineRouter is the traditional latency-oriented least-loaded
 * policy. TapasRouter first filters VMs whose servers carry thermal,
 * power, airflow, or performance risk, then applies the paper's
 * three-stage policy: (1) KV-cache affinity for repeat customers,
 * (2) energy-saving load concentration, (3) performance spread.
 */

#ifndef TAPAS_CORE_ROUTER_HH
#define TAPAS_CORE_ROUTER_HH

#include <vector>

#include "core/context.hh"
#include "core/risk.hh"
#include "llm/engine.hh"
#include "llm/request.hh"

namespace tapas {

class Archive;

/** One routable VM of an endpoint. */
struct RouteCandidate
{
    VmId vm;
    ServerId server;
    /** The VM's serving engine (load/accepting state). */
    InferenceEngine *engine = nullptr;
};

/** Routing policy interface. */
class RequestRouter
{
  public:
    virtual ~RequestRouter() = default;

    /**
     * Pick a VM for the request from the endpoint's candidates.
     * Returns an invalid VmId when nothing can accept (caller
     * re-queues the request).
     */
    virtual VmId route(const Request &request,
                       const std::vector<RouteCandidate> &candidates,
                       const RiskAssessor *risk) = 0;

    virtual const char *name() const = 0;

    /**
     * Serialize/restore router-internal state (checkpointing).
     * Stateless policies keep the default no-op.
     */
    virtual void checkpointState(Archive &) {}
};

/** Least-estimated-TTFT routing, risk-oblivious. */
class BaselineRouter : public RequestRouter
{
  public:
    VmId route(const Request &request,
               const std::vector<RouteCandidate> &candidates,
               const RiskAssessor *risk) override;

    const char *name() const override { return "baseline"; }
};

/** TAPAS risk-filtered, affinity/concentration/spread routing. */
class TapasRouter : public RequestRouter
{
  public:
    explicit TapasRouter(const TapasPolicyConfig &config)
        : cfg(config)
    {}

    VmId route(const Request &request,
               const std::vector<RouteCandidate> &candidates,
               const RiskAssessor *risk) override;

    const char *name() const override { return "tapas"; }

    /** Customers with an affinity entry (for tests). */
    std::size_t affinityEntries() const;

    /** Serialize/restore the KV-cache affinity table. */
    void checkpointState(Archive &ar) override;

  private:
    // ckpt-skip(constant): policy flags fixed at construction
    TapasPolicyConfig cfg;
    /**
     * VM that last served each customer, indexed by customer (KV-cache
     * residency); invalid where the customer has no entry.
     */
    std::vector<VmId> affinity;
    // ckpt-skip(scratch): per-request risk-filtered candidate list
    std::vector<const RouteCandidate *> safeScratch;
};

} // namespace tapas

#endif // TAPAS_CORE_ROUTER_HH
