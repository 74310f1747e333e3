/**
 * @file
 * Unit tests for the continuous-batching inference engine: FIFO
 * latency behavior, batching limits, SLO accounting, reconfiguration
 * drains/blackouts, and token conservation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/serialize.hh"
#include "llm/engine.hh"

namespace tapas {
namespace {

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : model(PerfModel::withReferenceSlo(
              ServerSpec::a100(), PerfParams::forSku(GpuSku::A100))),
          profile(model.profile(referenceConfig())),
          engine(profile, model.slo())
    {}

    Request
    makeRequest(std::uint32_t id, double arrival, int prompt = 512,
                int output = 128)
    {
        Request r;
        r.id = RequestId(id);
        r.endpoint = EndpointId(0);
        r.customer = CustomerId(id % 5);
        r.arrivalS = arrival;
        r.promptTokens = prompt;
        r.outputTokens = output;
        return r;
    }

    PerfModel model;
    ConfigProfile profile;
    InferenceEngine engine;
};

TEST_F(EngineTest, SingleRequestUnloadedLatency)
{
    engine.enqueue(makeRequest(1, 0.0));
    engine.step(0.0, 60.0);
    ASSERT_EQ(engine.lastCompletions().size(), 1u);
    const CompletedRequest &done = engine.lastCompletions().front();
    // Unloaded TTFT = prompt / prefill rate (no decode contention).
    EXPECT_NEAR(done.ttftS, 512.0 / profile.prefill.throughputTps,
                1e-6);
    // Unloaded TBT = batch-1 step time.
    EXPECT_NEAR(done.tbtS, profile.unloadedTbtS, 1e-6);
    EXPECT_TRUE(done.metSlo);
    EXPECT_DOUBLE_EQ(done.quality, 1.0);
}

TEST_F(EngineTest, CompletionAccountingMatchesTokens)
{
    engine.enqueue(makeRequest(1, 0.0, 100, 10));
    engine.enqueue(makeRequest(2, 0.0, 200, 20));
    engine.step(0.0, 120.0);
    EXPECT_EQ(engine.stats().completed, 2u);
    // Total tokens processed = prompts + (outputs - 1 first tokens
    // are emitted at prefill completion; engine counts decode work).
    EXPECT_NEAR(engine.stats().totalTokens,
                100.0 + 9.0 + 200.0 + 19.0, 1.0);
}

TEST_F(EngineTest, FifoOrderingOfFirstTokens)
{
    engine.enqueue(makeRequest(1, 0.0));
    engine.enqueue(makeRequest(2, 0.0));
    engine.enqueue(makeRequest(3, 0.0));
    engine.step(0.0, 60.0);
    ASSERT_EQ(engine.stats().completed, 3u);
    // All three arrived together; the first enqueued must see the
    // smallest TTFT.
    double prev = -1.0;
    for (const CompletedRequest &done : engine.lastCompletions()) {
        if (done.request.id.index == 1) {
            EXPECT_LT(done.ttftS, engine.slo().ttftS);
        }
        EXPECT_GT(done.ttftS, prev);
        prev = done.ttftS;
    }
}

TEST_F(EngineTest, QueueingInflatesTtft)
{
    for (std::uint32_t i = 0; i < 10; ++i)
        engine.enqueue(makeRequest(i, 0.0));
    engine.step(0.0, 300.0);
    ASSERT_EQ(engine.stats().completed, 10u);
    const double first = engine.stats().ttftS.quantile(0.0);
    const double last = engine.stats().ttftS.quantile(1.0);
    EXPECT_GT(last, 3.0 * first);
}

TEST_F(EngineTest, BatchSizeOneSerializesRequests)
{
    PerfModel small_model(model.spec(), model.params(), model.slo());
    InstanceConfig config = referenceConfig();
    config.maxBatchSize = 1;
    InferenceEngine serial(small_model.profile(config), model.slo());
    Request a = makeRequest(1, 0.0, 512, 64);
    Request b = makeRequest(2, 0.0, 512, 64);
    serial.enqueue(a);
    serial.enqueue(b);
    serial.step(0.0, 600.0);
    ASSERT_EQ(serial.stats().completed, 2u);
    const auto &dones = serial.lastCompletions();
    // Second request cannot start prefill until the first finishes.
    const double first_finish =
        std::min(dones[0].finishS, dones[1].finishS);
    double second_ttft_time = 0.0;
    for (const auto &done : dones) {
        if (done.request.id.index == 2)
            second_ttft_time = done.ttftS;
    }
    EXPECT_GE(second_ttft_time, first_finish - 1e-6);
}

TEST_F(EngineTest, StepBoundaryDoesNotChangeResults)
{
    // Process identical workloads with one big step vs many small
    // ones; completions must match (continuous-time correctness).
    InferenceEngine coarse(profile, model.slo());
    InferenceEngine fine(profile, model.slo());
    for (std::uint32_t i = 0; i < 6; ++i) {
        coarse.enqueue(makeRequest(i, 0.0));
        fine.enqueue(makeRequest(i, 0.0));
    }
    coarse.step(0.0, 100.0);
    double t = 0.0;
    while (t < 100.0) {
        fine.step(t, t + 0.5);
        t += 0.5;
    }
    ASSERT_EQ(coarse.stats().completed, fine.stats().completed);
    EXPECT_NEAR(coarse.stats().ttftS.p99(), fine.stats().ttftS.p99(),
                1e-6);
    EXPECT_NEAR(coarse.stats().totalTokens, fine.stats().totalTokens,
                1e-3);
}

TEST_F(EngineTest, UtilizationReflectsLoad)
{
    engine.step(0.0, 10.0);
    EXPECT_DOUBLE_EQ(engine.lastUtilization(), 0.0);
    engine.enqueue(makeRequest(1, 10.0, 4096, 512));
    engine.step(10.0, 11.0);
    EXPECT_GT(engine.lastUtilization(), 0.9);
}

TEST_F(EngineTest, PrefillShareTracksPhase)
{
    // A prompt-heavy request keeps the engine in prefill.
    engine.enqueue(makeRequest(1, 0.0, 8192, 2));
    engine.step(0.0, 1.0);
    EXPECT_GT(engine.lastPrefillShare(), 0.9);
}

TEST_F(EngineTest, SloViolationCounted)
{
    // Swamp the engine far past its SLO headroom.
    for (std::uint32_t i = 0; i < 200; ++i)
        engine.enqueue(makeRequest(i, 0.0));
    double t = 0.0;
    while (t < 600.0) {
        engine.step(t, t + 5.0);
        t += 5.0;
    }
    EXPECT_GT(engine.stats().sloViolations, 0u);
    EXPECT_LT(engine.stats().goodputTokens,
              engine.stats().totalTokens);
}

TEST_F(EngineTest, ImmediateReconfigForFreqChange)
{
    InstanceConfig slower = referenceConfig();
    slower.freqFrac = 0.7;
    engine.requestReconfig(model.profile(slower), 30.0);
    EXPECT_TRUE(engine.accepting());
    EXPECT_FALSE(engine.reconfiguring());
    EXPECT_DOUBLE_EQ(engine.profile().config.freqFrac, 0.7);
}

TEST_F(EngineTest, ModelChangeDrainsThenBlacksOut)
{
    engine.enqueue(makeRequest(1, 0.0, 512, 256));
    engine.step(0.0, 0.1);
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B7;
    engine.requestReconfig(model.profile(smaller), 20.0);
    EXPECT_FALSE(engine.accepting());

    // Drain completes, blackout holds for 20 s after the drain.
    double t = 0.1;
    double drained_at = -1.0;
    while (t < 120.0) {
        engine.step(t, t + 0.5);
        if (drained_at < 0.0 && !engine.lastCompletions().empty())
            drained_at = engine.lastCompletions().front().finishS;
        t += 0.5;
    }
    ASSERT_GT(drained_at, 0.0);
    EXPECT_TRUE(engine.accepting());
    EXPECT_EQ(engine.profile().config.model, ModelSize::B7);

    // Requests served after the switch carry the new quality.
    engine.enqueue(makeRequest(2, t, 128, 8));
    engine.step(t, t + 30.0);
    ASSERT_FALSE(engine.lastCompletions().empty());
    EXPECT_LT(engine.lastCompletions().front().quality, 0.7);
}

TEST_F(EngineTest, BlackoutBlocksWorkForReloadDelay)
{
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B13;
    engine.requestReconfig(model.profile(smaller), 15.0);
    // Engine was idle: blackout starts at the next step.
    engine.step(0.0, 1.0);
    EXPECT_FALSE(engine.accepting());
    engine.step(1.0, 10.0);
    EXPECT_FALSE(engine.accepting());
    engine.step(10.0, 20.0);
    EXPECT_TRUE(engine.accepting());
    EXPECT_EQ(engine.profile().config.model, ModelSize::B13);
}

TEST_F(EngineTest, EnqueueDuringReconfigPanics)
{
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B7;
    engine.requestReconfig(model.profile(smaller), 5.0);
    EXPECT_DEATH(engine.enqueue(makeRequest(9, 0.0)), "accepting");
}

TEST_F(EngineTest, EstimatedTtftGrowsWithQueue)
{
    EXPECT_EQ(engine.estimatedTtftS(), 0.0);
    double last = 0.0;
    for (std::uint32_t i = 0; i < 50; ++i) {
        engine.enqueue(makeRequest(i, 0.0));
        EXPECT_GT(engine.estimatedTtftS(), last);
        last = engine.estimatedTtftS();
    }
}

/**
 * Reference router load signal, folded from scratch: the active
 * slot's remaining prefill first, then each queued request's prompt
 * front to back, over the prefill rate left while decode keeps its
 * 10% share. The queue is FIFO, so it holds the last queueDepth()
 * requests of @p enqueued.
 */
double
referenceTtftS(const InferenceEngine &engine,
               const std::vector<Request> &enqueued)
{
    double pending = engine.activePrefillRemaining();
    for (std::size_t i = enqueued.size() - engine.queueDepth();
         i < enqueued.size(); ++i) {
        pending += enqueued[i].promptTokens;
    }
    const double rate = 0.9 * engine.hardwareThrottle() *
        engine.profile().prefill.throughputTps;
    return rate > 0.0 ? pending / rate : 1e9;
}

TEST_F(EngineTest, EstimatedTtftIsTheExactBacklogFold)
{
    std::vector<Request> enqueued;
    std::uint32_t next_id = 0;
    auto burst = [&](InferenceEngine &target, double at, int count) {
        for (int i = 0; i < count; ++i) {
            // Uneven prompts: with the slot remainder, a reordered
            // fold rounds apart from this one.
            const int prompt = 97 + static_cast<int>(
                (next_id * 7919u) % 2039u);
            enqueued.push_back(makeRequest(next_id++, at, prompt));
            target.enqueue(enqueued.back());
            ASSERT_EQ(target.estimatedTtftS(),
                      referenceTtftS(target, enqueued));
        }
    };

    burst(engine, 0.0, 40);

    // Stop mid-prefill so the slot's remainder carries across the
    // step end.
    const double first_prompt = enqueued.front().promptTokens;
    engine.step(0.0, 0.29 * first_prompt /
                         profile.prefill.throughputTps);
    ASSERT_GT(engine.activePrefillRemaining(), 0.0);
    ASSERT_LT(engine.activePrefillRemaining(), first_prompt);
    EXPECT_EQ(engine.estimatedTtftS(),
              referenceTtftS(engine, enqueued));

    engine.step(0.05, 3.0);
    ASSERT_GT(engine.runningBatch(), 0u);
    burst(engine, 3.0, 25);
    EXPECT_EQ(engine.estimatedTtftS(),
              referenceTtftS(engine, enqueued));

    engine.setHardwareThrottle(0.6);
    EXPECT_EQ(engine.estimatedTtftS(),
              referenceTtftS(engine, enqueued));
    engine.step(3.0, 4.7);
    EXPECT_EQ(engine.estimatedTtftS(),
              referenceTtftS(engine, enqueued));

    // Model change: drain, then a reload blackout; the queue waits.
    InstanceConfig smaller = referenceConfig();
    smaller.model = ModelSize::B7;
    engine.requestReconfig(model.profile(smaller), 5.0);
    EXPECT_EQ(engine.estimatedTtftS(),
              referenceTtftS(engine, enqueued));
    double now = 4.7;
    while (!engine.accepting()) {
        engine.step(now, now + 1.3);
        now += 1.3;
        EXPECT_EQ(engine.estimatedTtftS(),
                  referenceTtftS(engine, enqueued));
    }
    ASSERT_EQ(engine.profile().config.model, ModelSize::B7);
    burst(engine, now, 15);

    // Migration cutover: another drain + blackout.
    engine.beginMigration(2.0);
    EXPECT_EQ(engine.estimatedTtftS(),
              referenceTtftS(engine, enqueued));
    engine.step(now, now + 0.7);
    now += 0.7;
    EXPECT_EQ(engine.estimatedTtftS(),
              referenceTtftS(engine, enqueued));
    ASSERT_GT(engine.queueDepth(), 0u);

    // Save, restore into a fresh engine: the restored fold matches
    // the reference and the original, and both keep agreeing.
    Archive out = Archive::writer();
    engine.checkpointState(out);
    ASSERT_TRUE(out.ok());
    InferenceEngine restored(profile, model.slo());
    Archive in = Archive::reader(out.buffer());
    restored.checkpointState(in);
    ASSERT_TRUE(in.done());
    EXPECT_EQ(restored.estimatedTtftS(),
              referenceTtftS(restored, enqueued));
    EXPECT_EQ(restored.estimatedTtftS(), engine.estimatedTtftS());

    while (!engine.accepting()) {
        engine.step(now, now + 1.1);
        restored.step(now, now + 1.1);
        now += 1.1;
    }
    // The same burst into both engines.
    const std::size_t before = enqueued.size();
    const std::uint32_t first_id = next_id;
    burst(engine, now, 10);
    enqueued.resize(before);
    next_id = first_id;
    burst(restored, now, 10);
    engine.step(now, now + 0.4);
    restored.step(now, now + 0.4);
    EXPECT_EQ(restored.estimatedTtftS(),
              referenceTtftS(restored, enqueued));
    EXPECT_EQ(restored.estimatedTtftS(), engine.estimatedTtftS());
}

TEST_F(EngineTest, GoodputCountsOnlySloCompliantTokens)
{
    engine.enqueue(makeRequest(1, 0.0, 100, 10));
    engine.step(0.0, 60.0);
    ASSERT_EQ(engine.stats().completed, 1u);
    EXPECT_TRUE(engine.lastCompletions().front().metSlo);
    EXPECT_DOUBLE_EQ(engine.stats().goodputTokens, 110.0);
}

/** Data pointers of the buffers step() fills that callers can see. */
struct StepBuffers
{
    const CompletedRequest *completions;
    const double *ttft;
    const double *tbt;
};

StepBuffers
stepBuffers(const InferenceEngine &e)
{
    return {e.lastCompletions().data(), e.stats().ttftS.raw().data(),
            e.stats().tbtS.raw().data()};
}

void
expectSameBuffers(const StepBuffers &before, const StepBuffers &after)
{
    EXPECT_EQ(before.completions, after.completions);
    EXPECT_EQ(before.ttft, after.ttft);
    EXPECT_EQ(before.tbt, after.tbt);
}

TEST_F(EngineTest, BusyStepNeverGrowsItsBuffers)
{
    // Engines step on pool workers while the simulator routes, so
    // enqueue() and a restore leave room for everything a step can
    // produce: the step's buffers never move.
    std::uint32_t next_id = 0;
    auto burst = [&](InferenceEngine &target, double at, int count) {
        for (int i = 0; i < count; ++i, ++next_id) {
            target.enqueue(makeRequest(next_id, at + 0.01 * i,
                                       200 + 37 * (next_id % 11),
                                       6 + next_id % 7));
        }
    };

    burst(engine, 0.0, 48);
    StepBuffers before = stepBuffers(engine);
    engine.step(0.0, 1.0);
    ASSERT_FALSE(engine.lastCompletions().empty());
    ASSERT_GT(engine.outstanding(),
              engine.lastCompletions().size());
    expectSameBuffers(before, stepBuffers(engine));

    // More load on top of the leftover backlog, run to empty.
    burst(engine, 1.0, 30);
    before = stepBuffers(engine);
    engine.step(1.0, 60.0);
    ASSERT_EQ(engine.outstanding(), 0u);
    ASSERT_FALSE(engine.lastCompletions().empty());
    expectSameBuffers(before, stepBuffers(engine));

    // A restore rebuilds each buffer at its saved size; it must
    // reserve again before the restored engine steps.
    burst(engine, 60.0, 40);
    engine.step(60.0, 60.8);
    ASSERT_GT(engine.outstanding(),
              engine.lastCompletions().size());
    Archive out = Archive::writer();
    engine.checkpointState(out);
    ASSERT_TRUE(out.ok());
    InferenceEngine restored(profile, model.slo());
    Archive in = Archive::reader(out.buffer());
    restored.checkpointState(in);
    ASSERT_TRUE(in.done());
    before = stepBuffers(restored);
    restored.step(60.8, 120.0);
    ASSERT_EQ(restored.outstanding(), 0u);
    expectSameBuffers(before, stepBuffers(restored));
}

} // namespace
} // namespace tapas
