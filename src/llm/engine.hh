/**
 * @file
 * Continuous-batching LLM inference engine (vLLM-style substrate).
 *
 * A fluid-flow engine: requests queue FIFO, get admitted into the
 * running batch up to the configured max batch size, prefill one at a
 * time (interleaved with decode as chunked-prefill schedulers do),
 * then decode together. Progress advances continuously within a step,
 * so TTFT/TBT have full resolution regardless of the simulator's step
 * size. Reconfiguration drains the batch, then blacks out for the
 * model-reload delay before the new profile takes effect, matching
 * the overheads Section 4.3 accounts for.
 */

#ifndef TAPAS_LLM_ENGINE_HH
#define TAPAS_LLM_ENGINE_HH

#include <vector>

#include "common/stats.hh"
#include "llm/perf.hh"
#include "llm/request.hh"

namespace tapas {

class Archive;

/** Aggregate engine counters. */
struct EngineStats
{
    std::uint64_t enqueued = 0;
    std::uint64_t completed = 0;
    std::uint64_t sloViolations = 0;
    double totalTokens = 0.0;
    /** Tokens from requests that met both SLOs. */
    double goodputTokens = 0.0;
    double qualitySum = 0.0;
    QuantileSample ttftS;
    QuantileSample tbtS;

    double meanQuality() const
    { return completed ? qualitySum / completed : 0.0; }
};

/** One LLM inference instance. */
class InferenceEngine
{
  public:
    InferenceEngine(const ConfigProfile &profile, const SloSpec &slo);

    const ConfigProfile &profile() const { return activeProfile; }
    const SloSpec &slo() const { return sloSpec; }

    /** Whether the engine is accepting new requests right now. */
    bool accepting() const { return !draining && !inBlackout; }

    /** True while draining or reloading for a pending reconfig. */
    bool reconfiguring() const { return draining || inBlackout; }

    /** Queue + running batch depth. */
    std::size_t outstanding() const
    { return queueDepth() + running.size() + (prefillActive ? 1 : 0); }

    std::size_t queueDepth() const { return queue.size() - queueHead; }
    std::size_t runningBatch() const
    { return running.size() + (prefillActive ? 1 : 0); }

    /**
     * Add a request. Panics if called while not accepting. Reserves
     * room for every outstanding request to run and complete (as do
     * requestReconfig and a restore), so step() never allocates:
     * engines may step on pool workers while the simulator's thread
     * routes.
     */
    void enqueue(const Request &request);

    /**
     * Begin a reconfiguration. Frequency/batch-only changes apply
     * immediately; others drain the running batch and then black out
     * for @p reload_delay_s.
     */
    void requestReconfig(const ConfigProfile &next,
                         double reload_delay_s);

    /**
     * Drain and black out without a config change: models the
     * traffic cutover while a SaaS VM migrates to another server.
     */
    void beginMigration(double delay_s);

    /**
     * Advance the engine over [from_s, to_s), processing admissions,
     * prefill, decode, completions, and reconfiguration.
     */
    void step(double from_s, double to_s);

    /**
     * Hardware frequency throttle (thermal/power capping): scales
     * processing rates without touching the software configuration.
     */
    void setHardwareThrottle(double frac);

    double hardwareThrottle() const { return hwThrottle; }

    /** Completions produced by the last step() call. */
    const std::vector<CompletedRequest> &lastCompletions() const
    { return completions; }

    /** Busy fraction of the last step, in [0,1]. */
    double lastUtilization() const { return lastUtil; }

    /** Share of busy time spent prefilling in the last step. */
    double lastPrefillShare() const { return lastPrefill; }

    /** Time-weighted mean running decode batch in the last step. */
    double lastDecodeBatch() const { return lastBatch; }

    /** Cumulative statistics. */
    const EngineStats &stats() const { return engineStats; }

    /** Prefill tokens left on the request now prefilling (0 if none). */
    double activePrefillRemaining() const
    { return prefillActive ? prefillSlot.prefillRemaining : 0.0; }

    /**
     * Estimated TTFT a request routed now would see: the pending
     * prefill backlog divided by the prefill rate available while
     * decode work shares the GPU. The router's load signal; O(1),
     * read from the cached backlog fold.
     */
    double estimatedTtftS() const;

    /**
     * Serialize/restore the complete engine state — profiles, queue,
     * running batch, reconfig latches, stats (checkpointing).
     */
    void checkpointState(Archive &ar);

  private:
    struct Active
    {
        Request request;
        double prefillRemaining = 0.0;
        double decodeRemaining = 0.0;
        double ttftS = -1.0;
        double firstTokenAt = -1.0;
    };

    ConfigProfile activeProfile;
    ConfigProfile pendingProfile;
    SloSpec sloSpec;

    /**
     * FIFO of waiting requests. A vector rather than a deque: step()
     * admits by advancing queueHead and compacts once at its end, so
     * stepping on a pool worker frees no memory the routing thread
     * allocated (cross-thread frees contend on the malloc arena).
     */
    std::vector<Active> queue;
    // ckpt-skip(scratch): first unadmitted item; 0 outside step()
    std::size_t queueHead = 0;
    std::vector<Active> running;
    bool prefillActive = false;
    Active prefillSlot;

    bool draining = false;
    bool inBlackout = false;
    bool hasPending = false;
    double blackoutUntil = 0.0;
    double reloadDelayS = 0.0;

    std::vector<CompletedRequest> completions;
    EngineStats engineStats;
    double lastUtil = 0.0;
    double lastPrefill = 0.0;
    double lastBatch = 0.0;
    double hwThrottle = 1.0;
    // ckpt-skip(derived): the slot's then each queued item's
    // prefillRemaining, summed in that order; enqueue() appends a
    // term, step() and a restore refold it
    double pendingPrefill = 0.0;

    void admit(double now);
    void refoldPendingPrefill();
    void reserveForOutstanding();
    void finish(Active &item, double now);
    double decodeRate() const;
    void maybeStartBlackout(double now);
};

} // namespace tapas

#endif // TAPAS_LLM_ENGINE_HH
