/**
 * @file
 * The determinism contract of the parallel stepping engine
 * (DESIGN.md "Concurrency model"): same seed + same config =>
 * bitwise-identical cycle counts, activity counters, energy
 * totals, and output tensors at ANY thread count. Run under
 * -fsanitize=thread in CI to also prove data-race freedom.
 */

#include <gtest/gtest.h>

#include "energy/energy.hh"
#include "nn/reference.hh"
#include "runtime/host.hh"
#include "runtime/system.hh"

using namespace maicc;

namespace
{

struct ModelFixture
{
    explicit ModelFixture(Network n, uint64_t seed)
        : net(std::move(n)), weights(randomWeights(net, seed))
    {
        const LayerSpec &first = net.layer(0);
        input = Tensor3(first.inH, first.inW, first.inC);
        Rng rng(seed + 1);
        input.randomize(rng);
    }

    Network net;
    std::vector<Weights4> weights;
    Tensor3 input;
};

RunResult
runAt(const ModelFixture &m, unsigned threads)
{
    SystemConfig cfg;
    cfg.numThreads = threads;
    MaiccSystem sys(m.net, m.weights, cfg);
    MappingPlan plan =
        planMapping(m.net, Strategy::Heuristic, 210);
    return sys.run(plan, m.input);
}

void
expectIdentical(const RunResult &a, const RunResult &b,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    ASSERT_EQ(a.layerOutputs.size(), b.layerOutputs.size());
    for (size_t i = 0; i < a.layerOutputs.size(); ++i)
        EXPECT_EQ(a.layerOutputs[i].data, b.layerOutputs[i].data)
            << "layer " << i;

    // Every activity counter, bit for bit.
    EXPECT_EQ(a.activity.runtime, b.activity.runtime);
    EXPECT_EQ(a.activity.activeCoreCycles,
              b.activity.activeCoreCycles);
    EXPECT_EQ(a.activity.macActivations, b.activity.macActivations);
    EXPECT_EQ(a.activity.moveRows, b.activity.moveRows);
    EXPECT_EQ(a.activity.remoteRows, b.activity.remoteRows);
    EXPECT_EQ(a.activity.verticalWriteBytes,
              b.activity.verticalWriteBytes);
    EXPECT_EQ(a.activity.dmemAccesses, b.activity.dmemAccesses);
    EXPECT_EQ(a.activity.llcAccesses, b.activity.llcAccesses);
    EXPECT_EQ(a.activity.nocFlitHops, b.activity.nocFlitHops);
    EXPECT_EQ(a.activity.dramAccesses, b.activity.dramAccesses);

    // Energy is a pure function of the activity, so the totals
    // must match exactly (no tolerance).
    EnergyBreakdown ea = computeEnergy(a.activity);
    EnergyBreakdown eb = computeEnergy(b.activity);
    EXPECT_EQ(ea.total(), eb.total());
    EXPECT_EQ(ea.dram, eb.dram);
    EXPECT_EQ(ea.cmem, eb.cmem);
    EXPECT_EQ(ea.noc, eb.noc);

    // Per-segment timing, bit for bit.
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_EQ(a.segments[i].start, b.segments[i].start);
        EXPECT_EQ(a.segments[i].end, b.segments[i].end);
    }
}

} // namespace

TEST(Determinism, SingleModelIdenticalAt128Threads)
{
    ModelFixture m(buildSmallCnn(16, 16, 64), 31);
    RunResult serial = runAt(m, 1);
    // Correctness anchor: the serial run matches the reference.
    auto ref = referenceRun(m.net, m.weights, m.input);
    ASSERT_EQ(serial.output().data, ref.final().data);

    expectIdentical(serial, runAt(m, 2), "2 threads");
    expectIdentical(serial, runAt(m, 8), "8 threads");
}

TEST(Determinism, ChannelSplitModelIdentical)
{
    // C=512 exercises the channel-split / partial-sum merge path,
    // the part of the parallel compute most sensitive to
    // accumulation order.
    Network net;
    net.name = "wide";
    LayerSpec l;
    l.name = "wideconv";
    l.kind = LayerKind::Conv;
    l.inputFrom = -1;
    l.inC = 512;
    l.inH = l.inW = 7;
    l.outC = 64;
    l.R = l.S = 3;
    l.stride = 1;
    l.pad = 1;
    l.relu = true;
    l.shift = 7;
    net.layers.push_back(l);
    ModelFixture m(std::move(net), 57);

    RunResult serial = runAt(m, 1);
    expectIdentical(serial, runAt(m, 2), "2 threads");
    expectIdentical(serial, runAt(m, 8), "8 threads");
}

TEST(Determinism, MultiDnnScheduleIdenticalAcrossThreadCounts)
{
    // The satellite workload: two co-tenant CNNs through the host
    // scheduler at 1, 2, and 8 threads. Region sizes, latencies,
    // and aggregate throughput must be identical — the host's
    // growth loop feeds earlier simulation results into later
    // decisions, so any nondeterminism would compound.
    ModelFixture camera(buildSmallCnn(32, 32, 64), 11);
    ModelFixture radar(buildSmallCnn(16, 16, 64), 13);

    auto schedule = [&](unsigned threads) {
        HostScheduler host(210, threads);
        host.addTask({"camera", &camera.net, &camera.weights, 3.0});
        host.addTask({"radar", &radar.net, &radar.weights, 1.0});
        return host.schedule();
    };

    HostScheduleResult serial = schedule(1);
    ASSERT_EQ(serial.regions.size(), 2u);
    for (unsigned threads : {2u, 8u}) {
        SCOPED_TRACE(threads);
        HostScheduleResult parallel = schedule(threads);
        ASSERT_EQ(parallel.regions.size(),
                  serial.regions.size());
        EXPECT_EQ(parallel.rejected, serial.rejected);
        EXPECT_EQ(parallel.aggregateThroughput,
                  serial.aggregateThroughput);
        for (size_t i = 0; i < serial.regions.size(); ++i) {
            EXPECT_EQ(parallel.regions[i].taskIdx,
                      serial.regions[i].taskIdx);
            EXPECT_EQ(parallel.regions[i].cores,
                      serial.regions[i].cores);
            EXPECT_EQ(parallel.regions[i].latencyMs,
                      serial.regions[i].latencyMs);
        }
    }

    // And each scheduled region still computes the right tensors.
    SystemConfig cfg;
    cfg.numThreads = 8;
    for (const auto &ra : serial.regions) {
        const ModelFixture &m =
            ra.taskIdx == 0 ? camera : radar;
        MaiccSystem sys(m.net, m.weights, cfg);
        RunResult r = sys.run(ra.plan, m.input);
        auto ref = referenceRun(m.net, m.weights, m.input);
        EXPECT_EQ(r.output().data, ref.final().data);
    }
}

TEST(Determinism, ZeroMeansHardwareConcurrency)
{
    ModelFixture m(buildSmallCnn(8, 8, 64), 91);
    RunResult serial = runAt(m, 1);
    expectIdentical(serial, runAt(m, 0), "hw concurrency");
}
