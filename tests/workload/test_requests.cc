/**
 * @file
 * Unit tests for SaaS request generation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "workload/requests.hh"

namespace tapas {
namespace {

std::vector<EndpointDemand>
twoEndpoints()
{
    EndpointDemand a;
    a.id = EndpointId(0);
    a.peakTokensPerS = 5000.0;
    a.peakHour = 14.0;
    EndpointDemand b;
    b.id = EndpointId(1);
    b.peakTokensPerS = 1000.0;
    b.peakHour = 2.0;
    return {a, b};
}

class RequestGenTest : public ::testing::Test
{
  protected:
    RequestGenTest()
        : gen(twoEndpoints(), LengthDistribution{}, 77)
    {}

    RequestGenerator gen;
};

TEST_F(RequestGenTest, DemandPeaksAtConfiguredHour)
{
    const double at_peak =
        gen.demandTokensPerS(EndpointId(0), 14 * kHour);
    const double at_trough =
        gen.demandTokensPerS(EndpointId(0), 2 * kHour);
    EXPECT_NEAR(at_peak, 5000.0, 1.0);
    EXPECT_NEAR(at_trough, 5000.0 * 0.35, 5.0);
}

TEST_F(RequestGenTest, DemandPerEndpointPhase)
{
    // Endpoint 1 peaks at 02:00.
    const double b_peak =
        gen.demandTokensPerS(EndpointId(1), 2 * kHour);
    const double b_day =
        gen.demandTokensPerS(EndpointId(1), 14 * kHour);
    EXPECT_GT(b_peak, b_day);
}

TEST_F(RequestGenTest, MeanTokensPerRequestIsPlausible)
{
    // Lognormal(6, 0.7) prompts + lognormal(4.8, 0.6) outputs land
    // around 500-700 tokens total.
    EXPECT_GT(gen.meanTokensPerRequest(), 400.0);
    EXPECT_LT(gen.meanTokensPerRequest(), 900.0);
}

TEST_F(RequestGenTest, PoissonRateMatchesDemand)
{
    // Generate an hour at peak; token volume should approximate the
    // demand integral.
    std::vector<Request> reqs;
    gen.generate(EndpointId(0), 14 * kHour, 15 * kHour, reqs);
    double tokens = 0.0;
    for (const Request &r : reqs)
        tokens += r.promptTokens + r.outputTokens;
    const double expected = 5000.0 * 3600.0;
    EXPECT_NEAR(tokens / expected, 1.0, 0.1);
}

TEST_F(RequestGenTest, ArrivalsWithinWindowAndOrdered)
{
    std::vector<Request> reqs;
    gen.generate(EndpointId(0), 1000, 2000, reqs);
    ASSERT_FALSE(reqs.empty());
    double prev = 1000.0;
    for (const Request &r : reqs) {
        EXPECT_GE(r.arrivalS, prev);
        EXPECT_LT(r.arrivalS, 2000.0);
        prev = r.arrivalS;
    }
}

TEST_F(RequestGenTest, LengthsRespectClamps)
{
    std::vector<Request> reqs;
    gen.generate(EndpointId(0), 0, 2 * kHour, reqs);
    for (const Request &r : reqs) {
        EXPECT_GE(r.promptTokens, 16);
        EXPECT_LE(r.promptTokens, 4096);
        EXPECT_GE(r.outputTokens, 8);
        EXPECT_LE(r.outputTokens, 1024);
    }
}

TEST_F(RequestGenTest, CustomersAreZipfSkewed)
{
    std::vector<Request> reqs;
    gen.generate(EndpointId(0), 0, 4 * kHour, reqs);
    ASSERT_GT(reqs.size(), 100u);
    std::vector<int> counts(50, 0);
    for (const Request &r : reqs)
        ++counts[r.customer.index];
    // Rank-0 customer should dominate rank-10.
    EXPECT_GT(counts[0], 3 * std::max(1, counts[10]));
}

TEST_F(RequestGenTest, RequestIdsAreUnique)
{
    std::vector<Request> a;
    std::vector<Request> b;
    gen.generate(EndpointId(0), 0, kHour, a);
    gen.generate(EndpointId(1), 0, kHour, b);
    std::vector<std::uint32_t> ids;
    for (const Request &r : a)
        ids.push_back(r.id.index);
    for (const Request &r : b)
        ids.push_back(r.id.index);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST_F(RequestGenTest, EndpointTagging)
{
    std::vector<Request> reqs;
    gen.generate(EndpointId(1), 0, kHour, reqs);
    for (const Request &r : reqs)
        EXPECT_EQ(r.endpoint, EndpointId(1));
}

// Prefetched windows against an oracle: a plain generator that calls
// generate() once per endpoint, in endpoint order, per window.

std::vector<EndpointDemand>
threeEndpoints()
{
    std::vector<EndpointDemand> eps = twoEndpoints();
    EndpointDemand idle;
    idle.id = EndpointId(2);
    idle.peakTokensPerS = 0.0; // every window of it is zero-rate
    eps.push_back(idle);
    return eps;
}

DemandNoise
minuteNoise()
{
    DemandNoise noise;
    noise.sigma = 0.3;
    noise.bucketS = kMinute;
    return noise;
}

RequestGenerator
makeGenerator()
{
    return RequestGenerator(threeEndpoints(), LengthDistribution{}, 91,
                            minuteNoise());
}

struct Window
{
    SimTime from;
    SimTime to;
};

/** Consecutive one-minute windows starting at @p start. */
std::vector<Window>
minuteWindows(SimTime start, int count)
{
    std::vector<Window> out;
    for (int k = 0; k < count; ++k)
        out.push_back({start + k * kMinute, start + (k + 1) * kMinute});
    return out;
}

void
expectSameRequests(const std::vector<Request> &want,
                   const std::vector<Request> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << "request " << i;
        EXPECT_EQ(want[i].endpoint, got[i].endpoint) << "request " << i;
        EXPECT_EQ(want[i].customer, got[i].customer) << "request " << i;
        EXPECT_EQ(want[i].arrivalS, got[i].arrivalS) << "request " << i;
        EXPECT_EQ(want[i].promptTokens, got[i].promptTokens)
            << "request " << i;
        EXPECT_EQ(want[i].outputTokens, got[i].outputTokens)
            << "request " << i;
    }
}

/** Every endpoint's oracle arrivals of @p w against @p fetched's. */
void
expectWindowMatches(RequestGenerator &oracle,
                    const RequestGenerator &fetched, const Window &w)
{
    std::vector<Request> want;
    for (const EndpointDemand &ep : oracle.endpoints()) {
        oracle.generate(ep.id, w.from, w.to, want);
        SCOPED_TRACE(testing::Message() << "endpoint " << ep.id.index
                                        << " window " << w.from);
        expectSameRequests(want, fetched.arrivals(ep.id));
    }
}

std::vector<std::uint8_t>
checkpointBytes(RequestGenerator &gen)
{
    Archive ar = Archive::writer();
    gen.checkpointState(ar);
    return ar.buffer();
}

TEST(RequestPrefetch, ServesTheOracleStreamRequestForRequest)
{
    ThreadPool pool(2);
    RequestGenerator oracle = makeGenerator();
    RequestGenerator fetched = makeGenerator();
    const std::vector<Window> windows = minuteWindows(14 * kHour, 6);
    std::size_t served = 0;
    for (std::size_t k = 0; k < windows.size(); ++k) {
        // Window 0 has no prefetch and is generated in loadWindow.
        fetched.loadWindow(windows[k].from, windows[k].to);
        if (k + 1 < windows.size())
            fetched.prefetch(windows[k + 1].from, windows[k + 1].to,
                             &pool);
        expectWindowMatches(oracle, fetched, windows[k]);
        for (const EndpointDemand &ep : oracle.endpoints())
            served += fetched.arrivals(ep.id).size();
        EXPECT_TRUE(fetched.arrivals(EndpointId(2)).empty());
    }
    EXPECT_GT(served, 100u);
    EXPECT_EQ(checkpointBytes(oracle), checkpointBytes(fetched));
}

TEST(RequestPrefetch, WithoutAPoolRunsInline)
{
    RequestGenerator oracle = makeGenerator();
    RequestGenerator fetched = makeGenerator();
    const std::vector<Window> windows = minuteWindows(0, 4);
    for (std::size_t k = 0; k < windows.size(); ++k) {
        fetched.loadWindow(windows[k].from, windows[k].to);
        if (k + 1 < windows.size())
            fetched.prefetch(windows[k + 1].from, windows[k + 1].to,
                             nullptr);
        expectWindowMatches(oracle, fetched, windows[k]);
    }
}

TEST(RequestPrefetch, AMismatchedWindowOrGenerateDropsThePrefetch)
{
    ThreadPool pool(2);
    RequestGenerator oracle = makeGenerator();
    RequestGenerator fetched = makeGenerator();
    const std::vector<Window> windows = minuteWindows(0, 3);
    fetched.loadWindow(windows[0].from, windows[0].to);
    expectWindowMatches(oracle, fetched, windows[0]);
    // Prefetch a two-minute window, then load a one-minute one: the
    // prefetch is dropped and the stream resumes where it stood.
    fetched.prefetch(windows[1].from, windows[2].to, &pool);
    fetched.loadWindow(windows[1].from, windows[1].to);
    expectWindowMatches(oracle, fetched, windows[1]);
    EXPECT_EQ(checkpointBytes(oracle), checkpointBytes(fetched));

    // generate() drops a prefetch too: its draws come first, and the
    // window the prefetch covered is then generated after them.
    fetched.prefetch(windows[2].from, windows[2].to, &pool);
    std::vector<Request> want;
    std::vector<Request> got;
    oracle.generate(EndpointId(0), 0, kHour, want);
    fetched.generate(EndpointId(0), 0, kHour, got);
    expectSameRequests(want, got);
    fetched.loadWindow(windows[2].from, windows[2].to);
    expectWindowMatches(oracle, fetched, windows[2]);
}

TEST(RequestPrefetch, CheckpointWithAPrefetchOutstandingIsTheOracles)
{
    ThreadPool pool(2);
    RequestGenerator oracle = makeGenerator();
    RequestGenerator fetched = makeGenerator();
    const std::vector<Window> windows = minuteWindows(14 * kHour, 4);
    for (std::size_t k = 0; k + 1 < windows.size(); ++k) {
        fetched.loadWindow(windows[k].from, windows[k].to);
        fetched.prefetch(windows[k + 1].from, windows[k + 1].to, &pool);
        expectWindowMatches(oracle, fetched, windows[k]);
        // Same boundary, window k+1 prefetched on one side only.
        EXPECT_EQ(checkpointBytes(oracle), checkpointBytes(fetched))
            << "boundary after window " << k;
    }
    // Writing kept the prefetch, and it is still the oracle's.
    fetched.loadWindow(windows.back().from, windows.back().to);
    expectWindowMatches(oracle, fetched, windows.back());
}

TEST(RequestPrefetch, RestoreDropsThePrefetchAndContinues)
{
    ThreadPool pool(2);
    RequestGenerator oracle = makeGenerator();
    RequestGenerator fetched = makeGenerator();
    const std::vector<Window> windows = minuteWindows(14 * kHour, 6);
    std::vector<Request> scratch;
    for (const EndpointDemand &ep : oracle.endpoints())
        oracle.generate(ep.id, windows[0].from, windows[0].to, scratch);
    const std::vector<std::uint8_t> after_first = checkpointBytes(oracle);

    // Run the other generator one window further and leave window 2
    // prefetched from there.
    for (std::size_t k = 0; k < 2; ++k)
        fetched.loadWindow(windows[k].from, windows[k].to);
    fetched.prefetch(windows[2].from, windows[2].to, &pool);

    // Back to the boundary after window 0. Window 2 must come from
    // the restored stream now, not from the stale prefetch.
    Archive in = Archive::reader(after_first);
    fetched.checkpointState(in);
    ASSERT_TRUE(in.ok());
    for (std::size_t k = 2; k < windows.size(); ++k) {
        fetched.loadWindow(windows[k].from, windows[k].to);
        if (k + 1 < windows.size())
            fetched.prefetch(windows[k + 1].from, windows[k + 1].to,
                             &pool);
        expectWindowMatches(oracle, fetched, windows[k]);
    }
    EXPECT_EQ(checkpointBytes(oracle), checkpointBytes(fetched));
}

TEST(RequestPrefetch, DestroyingWithAPrefetchInFlightIsClean)
{
    ThreadPool pool(2);
    for (int round = 0; round < 8; ++round) {
        auto gen = std::make_unique<RequestGenerator>(
            threeEndpoints(), LengthDistribution{}, 91, minuteNoise());
        gen->loadWindow(0, kMinute);
        // An hour of arrivals: the task is still running when the
        // generator goes away, unless the destructor claimed it.
        gen->prefetch(kMinute, kHour, &pool);
        gen.reset();
    }
}

TEST(RequestPrefetch, BuffersKeepTheirStorageWhileWindowsFit)
{
    ThreadPool pool(2);
    RequestGenerator fetched = makeGenerator();
    // A ten-minute first window, then one-minute windows: each later
    // window fits the reserve made over the first.
    std::vector<Window> windows = {{14 * kHour, 14 * kHour + 10 * kMinute}};
    for (const Window &w : minuteWindows(windows[0].to, 7))
        windows.push_back(w);
    const std::size_t n_eps = fetched.endpoints().size();
    std::vector<std::vector<const Request *>> data;
    std::vector<std::size_t> first_sizes(n_eps);
    for (std::size_t k = 0; k < windows.size(); ++k) {
        fetched.loadWindow(windows[k].from, windows[k].to);
        if (k + 1 < windows.size())
            fetched.prefetch(windows[k + 1].from, windows[k + 1].to,
                             &pool);
        data.emplace_back();
        for (const EndpointDemand &ep : fetched.endpoints()) {
            const std::vector<Request> &reqs = fetched.arrivals(ep.id);
            data.back().push_back(reqs.data());
            if (k == 0)
                first_sizes[ep.id.index] = reqs.size();
            // The prefetch buffer was reserved before its task ran,
            // over the window loaded before it.
            if (k == 1) {
                EXPECT_GE(reqs.capacity(), first_sizes[ep.id.index]);
            }
        }
    }
    EXPECT_GT(first_sizes[0], 1000u);
    // Two buffers per endpoint alternate; neither moves once both
    // have been sized (the idle endpoint's first is sized at k = 2).
    for (std::size_t k = 3; k < windows.size(); ++k) {
        for (std::size_t e = 0; e < n_eps; ++e) {
            EXPECT_EQ(data[k][e], data[k - 2][e])
                << "endpoint " << e << " window " << k;
        }
    }
}

} // namespace
} // namespace tapas
