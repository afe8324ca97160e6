#include <sstream>

#include <gtest/gtest.h>

#include "common/sim_component.hh"
#include "nn/reference.hh"
#include "runtime/host.hh"
#include "runtime/system.hh"

using namespace maicc;

namespace
{

struct Fixture
{
    explicit Fixture(Network n, uint64_t seed = 21)
        : net(std::move(n)), w(randomWeights(net, seed))
    {
        const LayerSpec &first = net.layer(0);
        input = Tensor3(first.inH, first.inW, first.inC);
        Rng rng(seed + 1);
        input.randomize(rng);
    }

    RunResult
    run(Strategy s)
    {
        MaiccSystem sys(net, w);
        MappingPlan plan = planMapping(net, s, 210);
        return sys.run(plan, input);
    }

    Network net;
    std::vector<Weights4> w;
    Tensor3 input;
};

} // namespace

// Pins the derated filter-load DRAM bandwidth: 32 channels x
// 64 B accesses / burst 4 x 0.25 sustained utilization = 128 B
// per cycle (see SystemConfig::filterLoadDramUtilization).
TEST(SystemConfigTest, FilterLoadBandwidthDefault)
{
    SystemConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.filterLoadBytesPerCycle(), 128.0);
    // The derate applies on top of the configured peak.
    cfg.dramChannels = 16;
    EXPECT_DOUBLE_EQ(cfg.filterLoadBytesPerCycle(), 64.0);
    cfg.dram.accessBytes = 128;
    EXPECT_DOUBLE_EQ(cfg.filterLoadBytesPerCycle(), 128.0);
}

TEST(System, SmallCnnMatchesReferenceAllStrategies)
{
    Fixture f(buildSmallCnn(16, 16, 64));
    auto ref = referenceRun(f.net, f.w, f.input);
    for (Strategy s : {Strategy::SingleLayer, Strategy::Greedy,
                       Strategy::Heuristic}) {
        RunResult r = f.run(s);
        ASSERT_EQ(r.layerOutputs.size(), f.net.size());
        for (size_t i = 0; i < f.net.size(); ++i) {
            EXPECT_EQ(r.layerOutputs[i].data, ref.outputs[i].data)
                << strategyName(s) << " layer "
                << f.net.layer(i).name;
        }
    }
}

TEST(System, ResNet18MatchesReferenceBitExactly)
{
    // The full 20-layer pipelined run, with residual adds, channel
    // splits, pooling and the classifier, must reproduce the
    // reference executor exactly.
    Fixture f(buildResNet18());
    auto ref = referenceRun(f.net, f.w, f.input);
    RunResult r = f.run(Strategy::Heuristic);
    for (size_t i = 0; i < f.net.size(); ++i) {
        EXPECT_EQ(r.layerOutputs[i].data, ref.outputs[i].data)
            << f.net.layer(i).name;
    }
}

TEST(System, RunTimingMatchesRun)
{
    // The timing pass alone must leave everything a functional run
    // leaves — result, per-layer breakdown, activity, LLC stats and
    // the stats dump — and compute no tensor.
    struct Case
    {
        Network net;
        unsigned cores;
    };
    Network resnet = buildResNet18();
    std::vector<Case> cases = {
        {resnet, 210},
        {resnet, HostScheduler::minCores(resnet)},
        {buildSmallCnn(16, 16, 64), 210},
        {buildSmallCnn(8, 8, 64), 210},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.net.name + " on " + std::to_string(c.cores)
                     + " cores");
        Fixture f(c.net);
        MappingPlan plan =
            planMapping(f.net, Strategy::Heuristic, c.cores);
        SimContext timing_ctx, run_ctx;
        MaiccSystem timing_sys(f.net, f.w), run_sys(f.net, f.w);
        timing_sys.attachTo(timing_ctx);
        run_sys.attachTo(run_ctx);
        RunResult t = timing_sys.runTiming(plan);
        RunResult r = run_sys.run(plan, f.input);

        EXPECT_TRUE(t.layerOutputs.empty());
        EXPECT_EQ(r.layerOutputs.size(), f.net.size());
        EXPECT_EQ(t.totalCycles, r.totalCycles);
        ASSERT_EQ(t.segments.size(), r.segments.size());
        for (size_t i = 0; i < t.segments.size(); ++i) {
            const SegmentRunStats &ts = t.segments[i];
            const SegmentRunStats &rs = r.segments[i];
            EXPECT_EQ(ts.start, rs.start);
            EXPECT_EQ(ts.filterLoadDone, rs.filterLoadDone);
            EXPECT_EQ(ts.end, rs.end);
            ASSERT_EQ(ts.layers.size(), rs.layers.size());
            for (size_t j = 0; j < ts.layers.size(); ++j) {
                const LayerRunStats &tl = ts.layers[j];
                const LayerRunStats &rl = rs.layers[j];
                EXPECT_EQ(tl.layerIdx, rl.layerIdx);
                EXPECT_EQ(tl.firstInput, rl.firstInput);
                EXPECT_EQ(tl.lastOutput, rl.lastOutput);
                EXPECT_EQ(tl.midCore.compute, rl.midCore.compute);
                EXPECT_EQ(tl.midCore.sendIfmap, rl.midCore.sendIfmap);
                EXPECT_EQ(tl.midCore.sendOfmap, rl.midCore.sendOfmap);
                EXPECT_EQ(tl.midCore.waitIfmap, rl.midCore.waitIfmap);
            }
        }
        const ActivityCounts &ta = t.activity, &ra = r.activity;
        EXPECT_EQ(ta.runtime, ra.runtime);
        EXPECT_EQ(ta.activeCoreCycles, ra.activeCoreCycles);
        EXPECT_EQ(ta.macActivations, ra.macActivations);
        EXPECT_EQ(ta.moveRows, ra.moveRows);
        EXPECT_EQ(ta.remoteRows, ra.remoteRows);
        EXPECT_EQ(ta.verticalWriteBytes, ra.verticalWriteBytes);
        EXPECT_EQ(ta.dmemAccesses, ra.dmemAccesses);
        EXPECT_EQ(ta.llcAccesses, ra.llcAccesses);
        EXPECT_EQ(ta.nocFlitHops, ra.nocFlitHops);
        EXPECT_EQ(ta.dramAccesses, ra.dramAccesses);

        // The dump carries recordStats() of the system and of its
        // LLC child ("system.llc": hits, misses, writebacks).
        std::ostringstream tj, rj;
        timing_ctx.writeStatsJson(tj);
        run_ctx.writeStatsJson(rj);
        EXPECT_NE(tj.str().find("llc"), std::string::npos);
        EXPECT_EQ(tj.str(), rj.str());
    }
}

TEST(System, StrategyLatencyOrderMatchesTable6)
{
    Fixture f(buildResNet18());
    RunResult single = f.run(Strategy::SingleLayer);
    RunResult greedy = f.run(Strategy::Greedy);
    RunResult heuristic = f.run(Strategy::Heuristic);
    EXPECT_LT(heuristic.totalCycles, greedy.totalCycles);
    EXPECT_LT(greedy.totalCycles, single.totalCycles);
    // Paper Table 6: 24.078 / 10.410 / 5.138 ms. Require the same
    // order of magnitude.
    EXPECT_GT(single.latencyMs(), 10.0);
    EXPECT_LT(single.latencyMs(), 50.0);
    EXPECT_GT(heuristic.latencyMs(), 2.0);
    EXPECT_LT(heuristic.latencyMs(), 12.0);
}

TEST(System, InterLayerPipeliningOverlaps)
{
    // Within a heuristic segment, downstream layers start long
    // before upstream layers finish (§4.2 / §6.2).
    Fixture f(buildResNet18());
    RunResult r = f.run(Strategy::Heuristic);
    const SegmentRunStats &seg = r.segments[0];
    ASSERT_GE(seg.layers.size(), 2u);
    const LayerRunStats &first = seg.layers.front();
    const LayerRunStats &last = seg.layers.back();
    EXPECT_LT(last.firstInput, first.lastOutput);
}

TEST(System, SingleLayerWaitsOnIfmap)
{
    // Fig. 9: in the single-layer strategy an intermediate core of
    // layer 9 (conv2_4) spends most of its iteration waiting for
    // ifmap vectors.
    Fixture f(buildResNet18());
    RunResult r = f.run(Strategy::SingleLayer);
    // conv2_4 is the 9th compute layer -> segment index 8.
    const LayerRunStats &l9 = r.segments[8].layers[0];
    EXPECT_EQ(f.net.layer(l9.layerIdx).name, "conv2_4");
    EXPECT_GT(l9.midCore.waitIfmap, l9.midCore.compute);
}

TEST(System, HeuristicReducesLayer9Wait)
{
    Fixture f(buildResNet18());
    RunResult single = f.run(Strategy::SingleLayer);
    RunResult heur = f.run(Strategy::Heuristic);
    auto find_l9 = [&](const RunResult &r) -> CoreBreakdown {
        for (const auto &seg : r.segments) {
            for (const auto &ls : seg.layers) {
                if (f.net.layer(ls.layerIdx).name == "conv2_4")
                    return ls.midCore;
            }
        }
        maicc_panic("conv2_4 not found");
    };
    CoreBreakdown s9 = find_l9(single);
    CoreBreakdown h9 = find_l9(heur);
    // Fig. 9's shape: under the heuristic mapping the wait-ifmap
    // share of the iteration shrinks and the compute share grows
    // (fewer, fuller nodes per layer).
    EXPECT_LT(h9.waitIfmap / h9.total(),
              s9.waitIfmap / s9.total());
    EXPECT_GT(h9.compute, s9.compute);
}

TEST(System, ActivityCountsArePlausible)
{
    Fixture f(buildResNet18());
    RunResult r = f.run(Strategy::Heuristic);
    const auto &a = r.activity;
    // MAC activations: each masked MAC.C burns n^2 = 64 dual-row
    // activations regardless of how many of the 256 lanes its
    // channel group occupies, so layers with C < 256 cost
    // 256/C x the naive estimate.
    double expect_act = 0;
    for (const auto &l : f.net.layers) {
        if (l.isCompute()) {
            expect_act += double(l.macs())
                / std::min(l.inC, 256) * 64.0;
        }
    }
    EXPECT_GT(a.macActivations, 0.8 * expect_act);
    EXPECT_LT(a.macActivations, 1.3 * expect_act);
    EXPECT_GT(a.dramAccesses, 100'000u); // >= weights ~11 MB / 64
    EXPECT_GT(a.nocFlitHops, 1'000'000u);
    EXPECT_EQ(a.runtime, r.totalCycles);
}

TEST(System, EnergyBreakdownShapeMatchesFig10)
{
    // DRAM dominates (paper: 71%), CMem and NoC are next
    // (~11% each).
    Fixture f(buildResNet18());
    RunResult r = f.run(Strategy::Heuristic);
    EnergyBreakdown e = computeEnergy(r.activity);
    double total = e.total();
    EXPECT_GT(e.dram / total, 0.5);
    EXPECT_LT(e.dram / total, 0.85);
    EXPECT_GT(e.cmem / total, 0.04);
    EXPECT_LT(e.cmem / total, 0.25);
    EXPECT_GT(e.noc / total, 0.04);
    EXPECT_LT(e.noc / total, 0.25);
    // Average power in the neighbourhood of Table 7's 24.67 W.
    double watts = e.averagePowerW(r.totalCycles);
    EXPECT_GT(watts, 15.0);
    EXPECT_LT(watts, 40.0);
}

TEST(System, AreaModelMatchesPaper)
{
    AreaBreakdown a = computeArea(210);
    // 28 mm^2 total, CMem ~65%, core ~11% (Fig. 10).
    EXPECT_NEAR(a.total(), 28.0, 1.0);
    EXPECT_NEAR(a.cmem() / a.total(), 0.65, 0.05);
    EXPECT_NEAR(a.core / a.total(), 0.11, 0.03);
    // Table 4 node area: core + CMem + on-chip memory = 0.114.
    double node = 0.014 + 0.0867 + 0.0133;
    EXPECT_NEAR(node, 0.114, 1e-9);
}

TEST(System, FilterLoadIsSmallFractionUnderHeuristic)
{
    // §6.2: the filter-load phase takes no more than ~10% of the
    // total time (it overlaps with the previous segment).
    Fixture f(buildResNet18());
    RunResult r = f.run(Strategy::Heuristic);
    Cycles serial_load = 0;
    for (size_t i = 1; i < r.segments.size(); ++i) {
        Cycles gap = r.segments[i].start
            - std::max(r.segments[i - 1].end,
                       r.segments[i - 1].start);
        serial_load += gap > 0 ? gap : 0;
    }
    EXPECT_LT(double(serial_load), 0.25 * double(r.totalCycles));
}

TEST(System, DeterministicAcrossRuns)
{
    Fixture f(buildSmallCnn(8, 8, 64));
    RunResult a = f.run(Strategy::Heuristic);
    RunResult b = f.run(Strategy::Heuristic);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.output().data, b.output().data);
}

TEST(System, StartOffsetShiftsTimesNotResults)
{
    Fixture f(buildSmallCnn(8, 8, 64));
    MaiccSystem sys(f.net, f.w);
    MappingPlan plan = planMapping(f.net, Strategy::Heuristic, 210);
    RunResult a = sys.run(plan, f.input, 0);
    RunResult b = sys.run(plan, f.input, 123456);
    EXPECT_EQ(a.output().data, b.output().data);
    EXPECT_NEAR(double(a.totalCycles), double(b.totalCycles),
                double(a.totalCycles) * 0.01);
}

TEST(System, MoreCoresNeverSlower)
{
    // Monotonicity: widening the budget must not increase the
    // heuristic latency (Eq. (1) has more freedom).
    Fixture f(buildSmallCnn(16, 16, 64));
    Cycles prev = ~Cycles(0);
    for (unsigned budget : {40u, 80u, 140u, 210u}) {
        MaiccSystem sys(f.net, f.w);
        MappingPlan plan =
            planMapping(f.net, Strategy::Heuristic, budget);
        RunResult r = sys.run(plan, f.input);
        EXPECT_LE(r.totalCycles, prev + prev / 20)
            << "budget " << budget;
        prev = r.totalCycles;
        // Functional equivalence holds at every budget.
        auto ref = referenceRun(f.net, f.w, f.input);
        EXPECT_EQ(r.output().data, ref.final().data);
    }
}

TEST(System, SegmentsAreSequentialAndOrdered)
{
    Fixture f(buildResNet18());
    RunResult r = f.run(Strategy::Heuristic);
    Cycles prev_end = 0;
    for (const auto &seg : r.segments) {
        EXPECT_GE(seg.start, prev_end); // filter load may add gap
        EXPECT_GE(seg.end, seg.start);
        prev_end = seg.end;
    }
    EXPECT_EQ(r.totalCycles, prev_end);
}

TEST(System, LayerStatsCoverEveryComputeLayer)
{
    Fixture f(buildResNet18());
    RunResult r = f.run(Strategy::Greedy);
    size_t count = 0;
    for (const auto &seg : r.segments)
        count += seg.layers.size();
    EXPECT_EQ(count, f.net.computeLayers().size());
}

TEST(System, PipelinedThroughputBeatsBatchOne)
{
    // With consecutive samples pipelined through the segments, the
    // steady-state rate is set by the slowest segment, which is
    // strictly better than 1/latency for any multi-segment plan.
    Fixture f(buildResNet18());
    RunResult r = f.run(Strategy::Heuristic);
    double batch1 = 1e3 / r.latencyMs();
    double pipelined = r.pipelinedThroughput();
    EXPECT_GT(pipelined, batch1);
    EXPECT_LT(pipelined, batch1 * r.segments.size() + 1);
}

TEST(System, StatsDumpContainsActivityAndSegments)
{
    Fixture f(buildSmallCnn(8, 8, 64));
    RunResult r = f.run(Strategy::Heuristic);
    StatGroup g("run");
    r.dumpStats(g);
    EXPECT_EQ(g.get("cycles"), r.totalCycles);
    EXPECT_EQ(g.get("activity.macActivations"),
              r.activity.macActivations);
    EXPECT_GT(g.get("segment0.endCycle"), 0u);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("run.activity.nocFlitHops"),
              std::string::npos);
}

TEST(System, ChannelSplitLayerInIsolation)
{
    // A single conv with C = 512 exercises the filter-fragment /
    // merge-core path without the rest of ResNet18.
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

    auto w = randomWeights(net, 77);
    Tensor3 in(7, 7, 512);
    Rng rng(78);
    in.randomize(rng);
    MaiccSystem sys(net, w);
    MappingPlan plan = planMapping(net, Strategy::Heuristic, 210);
    ASSERT_EQ(plan.segments.size(), 1u);
    EXPECT_EQ(plan.segments[0].layers[0].alloc.channelSplits, 2u);
    RunResult r = sys.run(plan, in);
    auto ref = referenceRun(net, w, in);
    EXPECT_EQ(r.output().data, ref.final().data);
}

TEST(System, SingleLinearNetwork)
{
    // Degenerate network: one FC layer on a 1x1 fmap (one
    // iteration, no streaming).
    Network net;
    net.name = "fc-only";
    LayerSpec l;
    l.name = "fc";
    l.kind = LayerKind::Linear;
    l.inputFrom = -1;
    l.inC = 256;
    l.inH = l.inW = 1;
    l.outC = 100;
    l.R = l.S = 1;
    l.shift = 5;
    net.layers.push_back(l);

    auto w = randomWeights(net, 80);
    Tensor3 in(1, 1, 256);
    Rng rng(81);
    in.randomize(rng);
    MaiccSystem sys(net, w);
    for (Strategy s : {Strategy::SingleLayer, Strategy::Greedy,
                       Strategy::Heuristic}) {
        RunResult r = sys.run(planMapping(net, s, 210), in);
        auto ref = referenceRun(net, w, in);
        EXPECT_EQ(r.output().data, ref.final().data)
            << strategyName(s);
        EXPECT_GT(r.totalCycles, 0u);
    }
}

TEST(System, StrideTwoDownsamplePixelCompletion)
{
    // Stride-2 conv alone: the output-pixel completion indexing
    // (x_last/y_last with padding) must stay in range and produce
    // monotone non-decreasing ready times along the raster order
    // of each row.
    Network net;
    net.name = "down";
    LayerSpec l;
    l.name = "down";
    l.kind = LayerKind::Conv;
    l.inputFrom = -1;
    l.inC = 64;
    l.inH = l.inW = 14;
    l.outC = 32;
    l.R = l.S = 3;
    l.stride = 2;
    l.pad = 1;
    l.relu = true;
    l.shift = 5;
    net.layers.push_back(l);

    auto w = randomWeights(net, 82);
    Tensor3 in(14, 14, 64);
    Rng rng(83);
    in.randomize(rng);
    MaiccSystem sys(net, w);
    RunResult r =
        sys.run(planMapping(net, Strategy::Heuristic, 210), in);
    auto ref = referenceRun(net, w, in);
    EXPECT_EQ(r.output().data, ref.final().data);
    EXPECT_EQ(r.output().H, 7);
}
