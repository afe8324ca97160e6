/**
 * @file
 * Event-kernel regression suite (DESIGN.md §15). Every model runs
 * on the one event kernel; this suite pins its results two ways.
 *
 * Golden files (tests/engine/golden/): byte-exact outputs captured
 * from the retired ticked engine (advance-every-cycle loops) over
 * the same matrix, so the skip-ahead kernel stays pinned to the
 * oracle it replaced:
 *
 *  - MeshNoc under seeded random traffic (dense, sparse
 *    low-occupancy, and a single flit across the mesh): the
 *    registry dump, latency arithmetic, and per-node delivery
 *    order;
 *  - CoreTimingModel over seeded random RV32+CMem programs (the
 *    write-back port booking is the skip-ahead path);
 *  - ManyCoreDram completion order and stats;
 *  - MaiccSystem end-to-end runs (cycles, segments, activity);
 *  - serving and cluster --stats-json dumps.
 *
 * A second set pins the cycle-level kernels' corner cases. It was
 * captured from the event kernel as it stood before the NoC moved
 * to flat ring queues and request-mask arbitration and the core
 * to a windowed write-back booking:
 *
 *  - MeshNoc on 5x3 and 12x12 meshes, with queue depth 1 and 2,
 *    with zero router latency, and under per-cycle injection far
 *    above saturation;
 *  - CoreTimingModel on random programs with two write-back
 *    ports, CMem queue depths 0 and 4, and a 100,000-cycle remote
 *    latency, and the full CoreRunStats of the Table 4 conv on a
 *    MAICC node and on the scalar core.
 *
 * The policy_*.txt goldens pin admission instead: per policy (fifo,
 * sjf, priority, with and without backfill, plus whole-queue
 * batching) a 2-chip run's stats dump and every request record,
 * fault-free and under timeouts, a core loss and a fail-stop. They
 * were captured from the whole-queue admission scan that per-model
 * candidates (runtime/admission.hh) replaced.
 *
 * Live differentials, which need no golden data:
 *
 *  - the NoC's per-cycle tick() loop against the skip-ahead
 *    drain();
 *  - a reset() NoC rerun against a fresh mesh, and a reset() core
 *    against its cold state;
 *  - DRAM per-cycle polling against the event-kernel drainVia();
 *  - 1 against 8 host threads, with the timing-result cache off
 *    or cold;
 *  - the functional referenceRun anchor;
 *  - hostSeconds publication: absent from default stats dumps,
 *    present only under SimContext::enableHostTimers.
 *
 * To regenerate after an *intentional* timing-model change:
 *
 *   MAICC_REGOLD=1 ./test_engine
 *
 * which rewrites the golden files in the source tree; review the
 * diff like any other code change.
 */

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/scalar_conv.hh"
#include "cmem/cmem.hh"
#include "common/json.hh"
#include "common/rand_program.hh"
#include "common/random.hh"
#include "common/serving_fixtures.hh"
#include "common/sim_component.hh"
#include "core/conv_kernel.hh"
#include "core/scheduler.hh"
#include "core/timing.hh"
#include "dram/dram.hh"
#include "engine/event_queue.hh"
#include "mem/node_memory.hh"
#include "mem/row_store.hh"
#include "noc/noc.hh"
#include "nn/reference.hh"
#include "runtime/cluster.hh"
#include "runtime/sim_cache.hh"
#include "runtime/system.hh"

using namespace maicc;
using testserv::ModelFixture;
using testserv::Workload;
using testserv::expectIdenticalResults;

namespace
{

/**
 * Compare @p actual with the golden file @p name, or rewrite the
 * file when MAICC_REGOLD is set.
 */
void
expectGolden(const std::string &name, const std::string &actual)
{
    std::string path =
        std::string(MAICC_GOLDEN_DIR) + "/" + name + ".txt";
    if (std::getenv("MAICC_REGOLD")) {
        std::ofstream f(path);
        ASSERT_TRUE(f.good()) << "cannot write " << path;
        f << actual;
        return;
    }
    std::ifstream f(path);
    ASSERT_TRUE(f.good())
        << "missing golden file " << path
        << " — run with MAICC_REGOLD=1 to generate";
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(want.str(), actual) << "differs from " << path;
}

/** A double printed with every significant digit. */
std::string
exact(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

/**
 * Everything a NoC run can observe: the registry dump (includes
 * the cycle counter, so a skip-ahead jump landing on a wrong cycle
 * shows), the latency arithmetic, and each node's delivery order.
 */
std::string
nocText(MeshNoc &noc)
{
    SimContext ctx;
    noc.attachTo(ctx, "noc");
    std::ostringstream os;
    os << ctx.statsToJson().dump();
    os << "delivered " << noc.packetsDelivered() << "\n";
    os << "avgPacketLatency " << exact(noc.avgPacketLatency())
       << "\n";
    const NodeId nodes = noc.config().width * noc.config().height;
    for (NodeId n = 0; n < nodes; ++n) {
        const auto &d = noc.delivered(n);
        if (d.empty())
            continue;
        os << "node " << n << ":";
        for (const Packet &p : d)
            os << " " << p.tag;
        os << "\n";
    }
    return os.str();
}

/** Drive @p noc until idle, one tick() per cycle. */
void
tickUntilIdle(MeshNoc &noc)
{
    for (Cycles c = 0; !noc.idle(); ++c) {
        ASSERT_LT(c, Cycles(1'000'000)) << "tick runaway";
        noc.tick();
    }
}

/**
 * Inject the same seeded traffic into @p noc, wave by wave,
 * emptying the mesh after each wave with drain() or, when
 * @p per_cycle, with a plain tick() loop.
 */
std::string
runNocTraffic(MeshNoc &noc, uint64_t seed, unsigned packets,
              unsigned waves, bool per_cycle)
{
    const unsigned nodes = noc.config().width * noc.config().height;
    Rng rng(seed);
    for (unsigned w = 0; w < waves; ++w) {
        for (unsigned i = 0; i < packets; ++i) {
            Packet p;
            p.src = NodeId(rng.below(nodes));
            p.dst = NodeId(rng.below(nodes));
            if (p.dst == p.src && nodes > 1)
                p.dst = (p.src + 1) % nodes;
            p.sizeFlits = unsigned(1 + rng.below(9));
            p.tag = w * 1000 + i;
            noc.inject(p);
        }
        if (per_cycle)
            tickUntilIdle(noc);
        else
            noc.drain();
    }
    return nocText(noc);
}

void
expectNocGolden(const std::string &name, uint64_t seed,
                unsigned packets, unsigned waves,
                const NocConfig &cfg = NocConfig{})
{
    SCOPED_TRACE("seed " + std::to_string(seed) + " packets "
                 + std::to_string(packets));
    MeshNoc drained(cfg), ticked(cfg);
    std::string dj = runNocTraffic(drained, seed, packets, waves,
                                   false);
    std::string tj = runNocTraffic(ticked, seed, packets, waves,
                                   true);
    // Skip-ahead drain() lands on exactly the state a per-cycle
    // loop reaches...
    EXPECT_EQ(dj, tj);
    // ...and both on the retired ticked engine's bytes.
    expectGolden(name, dj);
}

} // namespace

TEST(EngineDifferential, NocDenseRandomTraffic)
{
    expectNocGolden("noc_dense", 101, 400, 3);
}

TEST(EngineDifferential, NocSparseLowOccupancyTraffic)
{
    // A handful of long-haul packets: almost every drain cycle is
    // idle, so drain() spends its time in clock jumps — the case
    // the skip-ahead math must get exactly right.
    expectNocGolden("noc_sparse", 77, 3, 4);
}

TEST(EngineDifferential, NocSingleFlitAcrossTheMesh)
{
    MeshNoc drained, ticked;
    for (MeshNoc *noc : {&drained, &ticked}) {
        Packet p;
        p.src = noc->nodeId(0, 0);
        p.dst = noc->nodeId(15, 15);
        p.sizeFlits = 1;
        noc->inject(p);
    }
    drained.drain();
    tickUntilIdle(ticked);
    EXPECT_DOUBLE_EQ(drained.avgPacketLatency(),
                     drained.zeroLoadLatency(30, 1));
    std::string dj = nocText(drained);
    EXPECT_EQ(dj, nocText(ticked));
    expectGolden("noc_single_flit", dj);
}

TEST(EngineDifferential, NocMeshesNotAMultipleOf64Nodes)
{
    // 15 and 144 routers: any per-router bitset leaves a partial
    // last word.
    NocConfig small;
    small.width = 5;
    small.height = 3;
    expectNocGolden("noc_mesh_5x3", 31, 60, 3, small);
    NocConfig mid;
    mid.width = 12;
    mid.height = 12;
    expectNocGolden("noc_mesh_12x12", 32, 300, 2, mid);
}

TEST(EngineDifferential, NocShallowInputQueues)
{
    // Depth 1 and 2: credits run out on almost every hop, so the
    // credit check and a full input queue decide most cycles.
    for (unsigned depth : {1u, 2u}) {
        NocConfig cfg;
        cfg.queueDepth = depth;
        expectNocGolden("noc_depth" + std::to_string(depth),
                        40 + depth, 300, 2, cfg);
    }
}

TEST(EngineDifferential, NocZeroRouterLatency)
{
    // A flit becomes eligible the cycle after it lands.
    NocConfig cfg;
    cfg.routerLatency = 0;
    expectNocGolden("noc_latency0", 51, 300, 2, cfg);
}

namespace
{

/**
 * The node-kernels pattern: every cycle, each node injects a
 * 5-flit packet with probability @p rate and the mesh ticks once;
 * then drain() empties it. At 0.1 packets per node per cycle the
 * offered load is far above the 16x16 mesh's saturation point, so
 * the injection backlog grows throughout.
 */
std::string
runSaturatedTraffic(MeshNoc &noc, uint64_t seed, Cycles cycles,
                    double rate)
{
    const unsigned nodes = noc.config().width * noc.config().height;
    Rng rng(seed);
    for (Cycles t = 0; t < cycles; ++t) {
        for (unsigned n = 0; n < nodes; ++n) {
            if (rng.real() >= rate)
                continue;
            Packet p;
            p.src = NodeId(n);
            p.dst = NodeId(rng.below(nodes));
            p.sizeFlits = 5;
            p.tag = t * 1000 + n;
            noc.inject(p);
        }
        noc.tick();
    }
    noc.drain();
    return nocText(noc);
}

} // namespace

TEST(EngineDifferential, NocPerCycleInjectionAboveSaturation)
{
    MeshNoc noc;
    expectGolden("noc_saturated",
                 runSaturatedTraffic(noc, 61, 300, 0.1));
}

TEST(EngineDifferential, NocResetRerunMatchesFreshMesh)
{
    NocConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    cfg.queueDepth = 2;
    MeshNoc fresh(cfg), reused(cfg);
    std::string want = runSaturatedTraffic(fresh, 71, 200, 0.1);
    // Leave the reused mesh mid-flight (queues, locks, round-robin
    // pointers and injection backlog all non-trivial) before the
    // reset.
    Rng rng(72);
    for (unsigned i = 0; i < 400; ++i) {
        Packet p;
        p.src = NodeId(rng.below(144));
        p.dst = NodeId(rng.below(144));
        p.sizeFlits = unsigned(1 + rng.below(9));
        reused.inject(p);
        reused.tick();
    }
    ASSERT_FALSE(reused.idle());
    reused.reset();
    EXPECT_TRUE(reused.idle());
    EXPECT_EQ(reused.now(), Cycles(0));
    EXPECT_EQ(runSaturatedTraffic(reused, 71, 200, 0.1), want);
}

namespace
{

/** One complete node state for a core-timing run. */
struct NodeState
{
    explicit NodeState(const rv32::Program &p)
        : prog(p), nodeMem(cmem, &ext)
    {
    }

    const rv32::Program &prog;
    CMem cmem;
    FlatMemory ext;
    RowStore rows;
    NodeMemory nodeMem;
};

CoreRunStats
runCore(const rv32::Program &prog, const CoreConfig &cfg = CoreConfig{})
{
    NodeState ns(prog);
    CoreTimingModel model(prog, ns.nodeMem, &ns.cmem, &ns.rows, cfg);
    return model.run();
}

/** Every CoreRunStats field on one line. */
std::string
coreStatsText(const CoreRunStats &s)
{
    std::ostringstream os;
    os << "cycles " << s.cycles << " insts " << s.insts
       << " cmemInsts " << s.cmemInsts << " cmemBusyCycles "
       << s.cmemBusyCycles << " stallRaw " << s.stallRaw
       << " stallWaw " << s.stallWaw << " stallQueueFull "
       << s.stallQueueFull << " stallStructural "
       << s.stallStructural << " branchPenaltyCycles "
       << s.branchPenaltyCycles << " localMemOps " << s.localMemOps
       << " remoteOps " << s.remoteOps;
    return os.str();
}

std::vector<int8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int8_t> v(n);
    for (auto &b : v)
        b = static_cast<int8_t>(rng.range(-128, 127));
    return v;
}

} // namespace

TEST(EngineDifferential, CoreTimingRandomPrograms)
{
    std::ostringstream os;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        rv32::Program prog = testgen::randomProgram(rng);
        os << "seed " << seed << " " << coreStatsText(runCore(prog))
           << "\n";
    }
    expectGolden("core_random_programs", os.str());
}

TEST(EngineDifferential, CoreTimingRandomProgramsAcrossConfigs)
{
    struct Variant
    {
        const char *name;
        CoreConfig cfg;
    };
    std::vector<Variant> variants;
    auto add = [&](const char *name, auto tweak) {
        CoreConfig cfg;
        tweak(cfg);
        variants.push_back({name, cfg});
    };
    // Two write-back ports: a slot takes two bookings before the
    // next one spills into the following cycle.
    add("wbPorts2", [](CoreConfig &c) { c.wbPorts = 2; });
    add("queue0", [](CoreConfig &c) { c.cmemQueueSize = 0; });
    add("queue4", [](CoreConfig &c) { c.cmemQueueSize = 4; });
    add("queue4_wbPorts2", [](CoreConfig &c) {
        c.cmemQueueSize = 4;
        c.wbPorts = 2;
    });
    // DRAM loads book their write-back 100,000 cycles past issue,
    // far beyond any fixed booking window.
    add("remote100000",
        [](CoreConfig &c) { c.remoteLatency = 100'000; });
    add("remote100000_wbPorts2", [](CoreConfig &c) {
        c.remoteLatency = 100'000;
        c.wbPorts = 2;
    });

    std::ostringstream os;
    for (const Variant &v : variants) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            Rng rng(1000 + seed);
            rv32::Program prog = testgen::randomProgram(rng);
            os << v.name << " seed " << seed << " "
               << coreStatsText(runCore(prog, v.cfg)) << "\n";
        }
    }
    expectGolden("core_random_configs", os.str());
}

TEST(EngineDifferential, CoreTimingTable4Node)
{
    // Paper Table 4's conv, on one MAICC node (Algorithm 1, CMem
    // bound) and on the scalar core (ALU and FlatMemory bound).
    ConvNodeWorkload w;
    auto ifmap = randomBytes(size_t(w.H) * w.W * w.C, 42);
    auto filters =
        randomBytes(size_t(w.numFilters) * w.R * w.S * w.C, 43);
    auto ref = referenceConvNode(w, ifmap, filters);

    rv32::Program prog = buildConvNodeProgram(w);
    staticSchedule(prog);
    NodeState ns(prog);
    stageConvNode(w, ns.cmem, ns.rows, ifmap, filters);
    CoreTimingModel model(prog, ns.nodeMem, &ns.cmem, &ns.rows,
                          CoreConfig{});
    CoreRunStats maicc = model.run();
    std::vector<int8_t> out;
    for (unsigned f = 0; f < w.numFilters; ++f)
        for (unsigned ox = 0; ox < w.outH(); ++ox)
            for (unsigned oy = 0; oy < w.outW(); ++oy)
                out.push_back(static_cast<int8_t>(ns.nodeMem.peekDmem(
                    convOutOffset(w, f, ox, oy))));
    EXPECT_EQ(out, ref);

    ScalarConvResult scalar = runScalarConv(w, ifmap, filters);
    EXPECT_EQ(scalar.out, ref);

    expectGolden("core_table4_node",
                 "maicc " + coreStatsText(maicc) + "\nscalar "
                     + coreStatsText(scalar.stats) + "\n");
}

TEST(EngineDifferential, CoreTimingResetThenRerun)
{
    // The executor cannot be rewound (reset() leaves architectural
    // state alone), so the rerun retires nothing: what it shows is
    // that reset() dropped every booking and busy-until time of the
    // long-horizon first run, leaving a cold pipeline whose run
    // ends at cycle 0.
    Rng rng(7);
    rv32::Program prog = testgen::randomProgram(rng);
    CoreConfig cfg;
    cfg.remoteLatency = 100'000;
    NodeState ns(prog);
    CoreTimingModel model(prog, ns.nodeMem, &ns.cmem, &ns.rows, cfg);
    CoreRunStats first = model.run();
    EXPECT_EQ(coreStatsText(first), coreStatsText(runCore(prog, cfg)));
    ASSERT_GT(first.remoteOps, 0u);
    uint32_t regs[32];
    for (unsigned r = 0; r < 32; ++r)
        regs[r] = model.executor().reg(r);

    model.reset();
    EXPECT_EQ(coreStatsText(model.run()),
              coreStatsText(CoreRunStats{}));
    for (unsigned r = 0; r < 32; ++r)
        EXPECT_EQ(model.executor().reg(r), regs[r]) << "x" << r;
    EXPECT_TRUE(model.executor().halted());
}

namespace
{

/** (tag, cycle, write) triples in completion order. */
using Completions = std::vector<std::vector<uint64_t>>;

void
enqueueSeeded(ManyCoreDram &dram, uint64_t seed, unsigned n)
{
    Rng rng(seed);
    for (unsigned i = 0; i < n; ++i) {
        Addr a = Addr(rng.below(1u << 26)) * 64;
        dram.enqueue(a, rng.below(2) != 0, i, 0);
    }
}

Completions
asTriples(const std::vector<DramCompletion> &done)
{
    Completions out;
    for (const DramCompletion &c : done)
        out.push_back({c.tag, uint64_t(c.finishedAt),
                       uint64_t(c.write)});
    return out;
}

} // namespace

TEST(EngineDifferential, DramPollingDrainVsEventDrain)
{
    std::ostringstream os;
    for (uint64_t seed : {5u, 6u, 7u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));

        // Polling: tick every cycle, collect in channel order.
        ManyCoreDram polled(8);
        enqueueSeeded(polled, seed, 96);
        std::vector<DramCompletion> pdone;
        Cycles c = 0;
        while (!polled.idle()) {
            ++c;
            ASSERT_LT(c, Cycles(1'000'000)) << "polling runaway";
            polled.tick(c);
            for (unsigned ch = 0; ch < polled.numChannels(); ++ch)
                for (auto &d : polled.channel(ch).collect(c))
                    pdone.push_back(d);
        }

        // Event: the wake-up chain drain on the shared kernel.
        ManyCoreDram event(8);
        enqueueSeeded(event, seed, 96);
        std::vector<DramCompletion> edone;
        EventQueue eq;
        Cycles last = event.drainVia(eq, &edone);

        ASSERT_EQ(pdone.size(), edone.size());
        EXPECT_EQ(asTriples(pdone), asTriples(edone));
        EXPECT_EQ(last, pdone.back().finishedAt);
        // Far fewer wake-ups than polled cycles is the point.
        EXPECT_LT(eq.eventsRun(), uint64_t(c));

        DramStats ps = polled.totalStats();
        DramStats es = event.totalStats();
        EXPECT_EQ(ps.reads, es.reads);
        EXPECT_EQ(ps.writes, es.writes);
        EXPECT_EQ(ps.activates, es.activates);
        EXPECT_EQ(ps.rowHits, es.rowHits);
        EXPECT_EQ(ps.busyCycles, es.busyCycles);

        os << "seed " << seed << " reads " << es.reads << " writes "
           << es.writes << " activates " << es.activates
           << " rowHits " << es.rowHits << " busyCycles "
           << es.busyCycles << "\n";
        for (const auto &t : asTriples(edone))
            os << t[0] << " " << t[1] << " " << t[2] << "\n";
    }
    expectGolden("dram_completions", os.str());
}

namespace
{

struct SystemFixture
{
    explicit SystemFixture(Network n, uint64_t seed)
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
runSystem(const SystemFixture &m, unsigned threads)
{
    SystemConfig cfg;
    cfg.numThreads = threads;
    MaiccSystem sys(m.net, m.weights, cfg);
    MappingPlan plan = planMapping(m.net, Strategy::Heuristic, 210);
    return sys.run(plan, m.input);
}

/** Cycles, segment and layer timing, and activity of @p r. */
std::string
systemText(const RunResult &r)
{
    std::ostringstream os;
    os << "totalCycles " << r.totalCycles << "\n";
    for (const SegmentRunStats &s : r.segments) {
        os << "segment start " << s.start << " filterLoadDone "
           << s.filterLoadDone << " end " << s.end << "\n";
        for (const LayerRunStats &l : s.layers)
            os << "  layer " << l.layerIdx << " firstInput "
               << l.firstInput << " lastOutput " << l.lastOutput
               << "\n";
    }
    const ActivityCounts &a = r.activity;
    os << "activity runtime " << a.runtime << " activeCoreCycles "
       << a.activeCoreCycles << " macActivations "
       << a.macActivations << " moveRows " << a.moveRows
       << " remoteRows " << a.remoteRows << " verticalWriteBytes "
       << a.verticalWriteBytes << " dmemAccesses " << a.dmemAccesses
       << " llcAccesses " << a.llcAccesses << " nocFlitHops "
       << a.nocFlitHops << " dramAccesses " << a.dramAccesses
       << "\n";
    return os.str();
}

} // namespace

TEST(EngineDifferential, SystemRunIdentical)
{
    SystemFixture m(buildSmallCnn(16, 16, 64), 43);
    auto ref = referenceRun(m.net, m.weights, m.input);
    RunResult serial = runSystem(m, 1);
    for (unsigned threads : {1u, 8u}) {
        SCOPED_TRACE(threads);
        RunResult r = threads == 1 ? serial : runSystem(m, threads);
        ASSERT_EQ(r.layerOutputs.size(), serial.layerOutputs.size());
        for (size_t i = 0; i < r.layerOutputs.size(); ++i)
            EXPECT_EQ(r.layerOutputs[i].data,
                      serial.layerOutputs[i].data)
                << "layer " << i;
        // Anchor: the functional reference.
        EXPECT_EQ(r.output().data, ref.final().data);
        expectGolden("system_run", systemText(r));
    }
}

namespace
{

ServingConfig
servingConfig(unsigned threads, unsigned sim_cache)
{
    ServingConfig cfg;
    cfg.seed = 11;
    cfg.offeredRequests = 18;
    cfg.meanInterarrival = 80'000;
    cfg.system.numThreads = threads;
    cfg.system.simCacheEntries = sim_cache;
    return cfg;
}

/** One serving run; returns (result, stats-JSON registry dump). */
std::pair<ServingResult, std::string>
runServing(const Workload &w, ServingConfig cfg,
           TimingResultCache *cache = nullptr)
{
    SimContext ctx;
    auto sim = w.simulator(std::move(cfg));
    sim->setTimingCache(cache);
    sim->attachTo(ctx);
    ServingResult r = sim->run();
    return {std::move(r), ctx.statsToJson().dump()};
}

} // namespace

TEST(EngineDifferential, ServingIdenticalAcrossThreadsAndCache)
{
    Workload w;
    auto [ref, ref_json] = runServing(w, servingConfig(1, 0));
    expectGolden("serving_stats", ref_json);

    for (unsigned threads : {1u, 8u}) {
        for (unsigned entries : {0u, 64u}) {
            SCOPED_TRACE("threads " + std::to_string(threads)
                         + " cache " + std::to_string(entries));
            TimingResultCache cache(entries);
            auto [r, rj] = runServing(
                w, servingConfig(threads, entries),
                entries ? &cache : nullptr);
            expectIdenticalResults(r, ref, "run vs reference");
            EXPECT_EQ(rj, ref_json);
        }
    }
}

TEST(EngineDifferential, ClusterIdenticalAcrossEngines)
{
    Workload w;
    for (unsigned chips : {3u, 4u}) {
        SCOPED_TRACE("chips " + std::to_string(chips));
        ServingConfig cfg = servingConfig(1, 0);
        cfg.chips = chips;
        SimContext ctx;
        auto cl = w.cluster(std::move(cfg));
        cl->attach(ctx);
        cl->run();
        expectGolden("cluster" + std::to_string(chips) + "_stats",
                     ctx.statsToJson().dump());
    }
}

namespace
{

/** One admission-policy variant of the policy-golden matrix. */
struct PolicyCase
{
    const char *name;
    SchedPolicy policy;
    bool backfill;
    bool batchAcrossQueue = false;
};

const PolicyCase kPolicyCases[] = {
    {"fifo", SchedPolicy::Fifo, false},
    {"fifo_backfill", SchedPolicy::Fifo, true},
    {"sjf", SchedPolicy::Sjf, false},
    {"priority", SchedPolicy::Priority, false},
    {"priority_backfill", SchedPolicy::Priority, true},
    // sjf admits from mid-queue, where whole-queue batching and the
    // contiguous run differ most.
    {"sjf_batch_across", SchedPolicy::Sjf, false, true},
};

/**
 * A 2-chip run deep enough that every policy reorders: three
 * models with different footprints and classes, batching on, and
 * a core budget that holds only a few regions at a time. The
 * faulted leg adds queue timeouts with retries, a core loss and a
 * chip fail-stop, so retried and failed-over requests re-enter a
 * queue behind younger ones (enqueue order differs from id order).
 */
ServingConfig
policyConfig(const PolicyCase &pc, bool faulted)
{
    ServingConfig cfg;
    cfg.seed = 19;
    cfg.offeredRequests = 96;
    cfg.meanInterarrival = 60'000;
    cfg.chips = 2;
    cfg.maxBatch = 3;
    cfg.system.coreBudget = 40;
    cfg.policy = pc.policy;
    cfg.backfill = pc.backfill;
    cfg.batchAcrossQueue = pc.batchAcrossQueue;
    cfg.selfCheck = true;
    if (faulted) {
        cfg.timeoutCycles = 900'000;
        cfg.maxRetries = 2;
        cfg.backoffCycles = 20'000;
        FaultEvent loss;
        loss.kind = FaultKind::CoreLoss;
        loss.cycle = 1'500'000;
        loss.chip = 0;
        loss.count = 20;
        cfg.faults.events.push_back(loss);
        FaultEvent stop;
        stop.kind = FaultKind::ChipFailStop;
        stop.cycle = 3'000'000;
        stop.chip = 1;
        cfg.faults.events.push_back(stop);
    }
    return cfg;
}

/** Every request's placement, stamps and terminal flags. */
std::string
recordsText(const ServingResult &r)
{
    std::ostringstream os;
    for (const RequestRecord &q : r.requests) {
        os << q.id << " shard " << q.shard << " start " << q.start
           << " finish " << q.finish << " cores " << q.cores
           << " batch " << q.batchSize << " retries " << q.retries
           << " completed " << q.completed << " rejected "
           << q.rejected << " shed " << q.shed << " timedOut "
           << q.timedOut << "\n";
    }
    return os.str();
}

void
expectPolicyGolden(const PolicyCase &pc, bool faulted)
{
    SCOPED_TRACE(std::string(pc.name)
                 + (faulted ? " faulted" : " clean"));
    Workload w;
    ModelFixture small(testserv::tinyConvNet("small", 8), 47);
    SimContext ctx;
    auto cl = w.cluster(policyConfig(pc, faulted), /*camera=*/0,
                        /*radar=*/1);
    cl->addModel(small.served("small", 1.5, 0, /*priority=*/2));
    cl->attach(ctx);
    ClusterResult r = cl->run();
    expectGolden(std::string("policy_") + pc.name
                     + (faulted ? "_faulted" : "_clean"),
                 ctx.statsToJson().dump() + recordsText(r.aggregate));
}

} // namespace

TEST(EngineDifferential, AdmissionPoliciesPinnedFaultFree)
{
    for (const PolicyCase &pc : kPolicyCases)
        expectPolicyGolden(pc, false);
}

TEST(EngineDifferential, AdmissionPoliciesPinnedUnderFaults)
{
    for (const PolicyCase &pc : kPolicyCases)
        expectPolicyGolden(pc, true);
}

TEST(EngineDifferential, HostSecondsOptInOnly)
{
    Workload w;
    SimContext ctx;
    auto sim = w.simulator(servingConfig(1, 0));
    sim->attachTo(ctx);
    sim->run();

    // Default dump: no hostSeconds anywhere (golden files and the
    // differentials byte-compare these dumps; wall-clock would
    // break them).
    std::string plain = ctx.statsToJson().dump();
    EXPECT_EQ(plain.find("hostSeconds"), std::string::npos);

    // Opted in: present, and the serving component charged its
    // run() wall time.
    ctx.enableHostTimers(true);
    std::string timed = ctx.statsToJson().dump();
    EXPECT_NE(timed.find("hostSeconds"), std::string::npos);
    EXPECT_GT(sim->hostSeconds(), 0.0);

    // And it is a pure add-on: disabling restores the exact
    // previous bytes.
    ctx.enableHostTimers(false);
    EXPECT_EQ(ctx.statsToJson().dump(), plain);
}
