#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/seeded_test.hh"
#include "mapping/allocation.hh"
#include "mapping/placement.hh"
#include "nn/network.hh"

using namespace maicc;

namespace
{

const LayerSpec &
layerByName(const Network &net, const std::string &name)
{
    for (const auto &l : net.layers) {
        if (l.name == name)
            return l;
    }
    maicc_panic("no layer %s", name.c_str());
}

} // namespace

TEST(Allocation, VectorSlots)
{
    // Q = 64/N - 1 slots per slice, 7 compute slices.
    EXPECT_EQ(vectorSlotsPerNode(8), 49u);
    EXPECT_EQ(vectorSlotsPerNode(4), 105u);
    EXPECT_EQ(vectorSlotsPerNode(16), 21u);
}

TEST(Allocation, PackFactor)
{
    Network net = buildResNet18();
    EXPECT_EQ(packFactor(layerByName(net, "conv1_1")), 4u); // C=64
    EXPECT_EQ(packFactor(layerByName(net, "conv2_2")), 2u); // C=128
    EXPECT_EQ(packFactor(layerByName(net, "conv3_2")), 1u); // C=256
    EXPECT_EQ(packFactor(layerByName(net, "conv4_2")), 1u); // C=512
}

TEST(Allocation, MinAllocationMatchesTable6GreedyColumn)
{
    // Paper Table 6's greedy #nodes are the densest packings.
    Network net = buildResNet18();
    struct Case
    {
        const char *name;
        unsigned total;
    };
    const Case cases[] = {
        {"conv1_1", 5},   // ceil(64/21)+1
        {"shortcut2", 2}, // ceil(128/196)+1
        {"conv2_1", 8},   // ceil(128/21)+1
        {"conv2_2", 14},  // ceil(128/10)+1
        {"shortcut3", 4}, // ceil(256/98)+1
        {"conv3_1", 27},  // ceil(256/10)+1
        {"conv3_2", 53},  // ceil(256/5)+1
        {"shortcut4", 12},// ceil(512/49)+1
    };
    for (const auto &c : cases) {
        EXPECT_EQ(minAllocation(layerByName(net, c.name))
                      .totalCores(),
                  c.total)
            << c.name;
    }
}

TEST(Allocation, SpreadMatchesTable6SingleLayerColumn)
{
    // Paper Table 6's single-layer #nodes column.
    Network net = buildResNet18();
    struct Case
    {
        const char *name;
        unsigned total;
    };
    const Case cases[] = {
        {"conv1_1", 65},   // 64 filters spread 1/node + DC
        {"shortcut2", 129},
        {"conv2_1", 129},
        {"conv2_2", 129},
        {"shortcut3", 129}, // 256 @ 2/node
        {"conv3_1", 129},
        {"conv3_2", 129},
        {"shortcut4", 172}, // 512 @ 3/node
        {"conv4_1", 172},
        {"conv4_2", 208},   // 1024 half-filters @ 5/node + 3 aux
        {"conv4_3", 208},
        {"conv4_4", 208},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(spreadAllocation(layerByName(net, c.name), 210)
                      .totalCores(),
                  c.total)
            << c.name;
    }
}

TEST(Allocation, ChannelSplitForWideLayers)
{
    Network net = buildResNet18();
    const LayerSpec &c42 = layerByName(net, "conv4_2");
    NodeAllocation a = minAllocation(c42);
    EXPECT_EQ(a.channelSplits, 2u);      // C = 512
    EXPECT_EQ(a.unitsPerNode, 5u);       // 45 of 49 slots
    EXPECT_EQ(a.computeCores, 205u);     // ceil(1024/5)
    EXPECT_EQ(a.auxCores, 3u);           // DC + 2 merge
}

TEST(Allocation, PaperSection41FilterBound)
{
    // §4.1: a node holds floor(7Q / (R*S)) filters; for N=8,
    // R=S=3, C=256 that is 5.
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 256;
    l.inH = l.inW = 9;
    l.outC = 5;
    l.R = l.S = 3;
    NodeAllocation a = minAllocation(l);
    EXPECT_EQ(a.unitsPerNode, 5u);
    EXPECT_EQ(a.computeCores, 1u);
}

TEST(Allocation, AllocationForCoresClampsAndBalances)
{
    Network net = buildResNet18();
    const LayerSpec &l = layerByName(net, "conv3_2"); // 256 units
    NodeAllocation a = allocationForCores(l, 100);
    EXPECT_EQ(a.unitsPerNode, 3u); // ceil(256/100)
    EXPECT_LE(a.computeCores, 100u);
    // Request more cores than units: clamp to one unit per core.
    NodeAllocation b = allocationForCores(l, 5000);
    EXPECT_EQ(b.unitsPerNode, 1u);
    EXPECT_EQ(b.computeCores, 256u);
    // Request fewer than the minimum: clamp up.
    NodeAllocation c = allocationForCores(l, 1);
    EXPECT_EQ(c.unitsPerNode, 5u);
}

TEST(Allocation, IterationCostFormula)
{
    // §4.1: a complete iteration takes 7N + Q*N^2 CMem cycles for
    // the full 5-filter node (45 MACs -> ceil(45/7) = 7 = Q).
    LayerSpec l;
    l.kind = LayerKind::Conv;
    l.inC = 256;
    l.inH = l.inW = 9;
    l.outC = 5;
    l.R = l.S = 3;
    NodeAllocation a = minAllocation(l);
    CoreIterCost c = coreIterCost(l, a);
    EXPECT_EQ(c.cmem, 7u * 8u + 7u * 64u); // 504
    EXPECT_GT(c.accumulate, 0u);
    EXPECT_GT(c.forward, 0u);
}

TEST(Allocation, CmemDominatesForDensePacking)
{
    // With full nodes the CMem is the iteration bottleneck; the
    // pipeline work fits in its shadow (paper §4.1).
    Network net = buildResNet18();
    const LayerSpec &l = layerByName(net, "conv3_2");
    NodeAllocation a = minAllocation(l);
    CoreIterCost c = coreIterCost(l, a);
    EXPECT_GT(c.cmem, c.accumulate + c.forward);
    // Compute phase is CMem-bound; only sends add on top.
    EXPECT_LT(c.iteration(0.0) - c.cmem, c.cmem / 4);
}

TEST(Allocation, DcCostScalesWithChannels)
{
    Network net = buildResNet18();
    Cycles dc64 = dcIterCost(layerByName(net, "conv1_1"), false);
    Cycles dc512 = dcIterCost(layerByName(net, "conv4_2"), false);
    EXPECT_GT(dc512, dc64);
    EXPECT_LT(dc64, 100u);
    // DRAM-fed data collection is dominated by remote byte loads
    // (the Fig. 9 "wait ifmap" source).
    Cycles dram64 = dcIterCost(layerByName(net, "conv1_1"), true);
    EXPECT_GT(dram64, 64u * dramByteLoadCycles);
}

TEST(Allocation, LongestPossibleRunTracksMarkDead)
{
    // longestPossibleRun() is cached and recomputed only in
    // markDead(); after every step of a seeded random core-loss
    // sequence it must equal a brute-force scan of the dead slots.
    for (uint64_t seed : testseed::seeds({1, 2, 3})) {
        MAICC_SEED_TRACE(seed);
        Rng rng(seed);
        RegionAllocator region;
        EXPECT_EQ(region.longestPossibleRun(), region.totalNodes());
        for (unsigned step = 0; step < 120; ++step) {
            region.markDead(unsigned(rng.below(region.totalNodes())));
            unsigned best = 0, run = 0;
            for (unsigned s = 0; s < region.totalNodes(); ++s) {
                run = region.dead(s) ? 0 : run + 1;
                best = std::max(best, run);
            }
            ASSERT_EQ(region.longestPossibleRun(), best)
                << "after step " << step;
        }
    }
}
