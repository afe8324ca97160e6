#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "baseline/scalar_conv.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/sim_component.hh"
#include "core/conv_kernel.hh"
#include "core/scheduler.hh"
#include "core/timing.hh"
#include "dram/dram.hh"
#include "energy/energy.hh"
#include "engine/event_queue.hh"
#include "mapping/segmentation.hh"
#include "nn/reference.hh"
#include "noc/noc.hh"
#include "runtime/cluster.hh"
#include "runtime/serving.hh"
#include "runtime/sim_cache.hh"
#include "runtime/system.hh"

namespace perfbench
{

using namespace maicc;

namespace
{

// Paper reference values (PAPER.md; Table 7 MAICC column and the
// Table 4 MAICC node). perfbench/README.md says which were used to
// tune the model.
constexpr double kPaperLatencyMs = 5.13;
constexpr double kPaperSamplesPerSPerW = 7.90;
constexpr double kPaperNodeCycles = 59141;

double
relErr(double sim, double paper)
{
    return std::fabs(sim - paper) / paper;
}

/** Nearest-rank percentile of @p v (sorted in place). */
double
nearestRank(std::vector<double> &v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(pct / 100.0 * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ---- Serving inputs ---------------------------------------------

/** The served mix: camera and radar CNNs, 2:1 (bench_serving's). */
struct ServedMix
{
    Network camera = buildSmallCnn(16, 16, 64);
    Network radar = buildSmallCnn(8, 8, 64);
    std::vector<Weights4> cameraW, radarW;
    Tensor3 cameraIn{16, 16, 64};
    Tensor3 radarIn{8, 8, 64};

    explicit ServedMix(Rng &seeds)
        : cameraW(randomWeights(camera, seeds.next())),
          radarW(randomWeights(radar, seeds.next()))
    {
        Rng rng(seeds.next());
        cameraIn.randomize(rng);
        radarIn.randomize(rng);
    }

    template <class Sim>
    void
    registerOn(Sim &sim) const
    {
        sim.addModel({"camera", &camera, &cameraW, &cameraIn, 2.0, 0,
                      1});
        sim.addModel({"radar", &radar, &radarW, &radarIn, 1.0, 0, 0});
    }
};

/**
 * Open-loop Poisson arrivals of the camera:radar = 2:1 mix as a
 * `<cycle> <model>` trace. Exponential gaps are drawn from the seed
 * and scaled by @p mean_gap, so one seed gives coupled streams at
 * every rate.
 */
std::string
poissonTrace(uint64_t seed, unsigned requests, Cycles mean_gap)
{
    Rng rng(seed);
    std::ostringstream os;
    Cycles t = 0;
    for (unsigned i = 0; i < requests; ++i) {
        t += Cycles(-std::log1p(-rng.real()) * double(mean_gap)) + 1;
        bool camera = rng.real() * 3.0 < 2.0;
        os << t << (camera ? " camera\n" : " radar\n");
    }
    return os.str();
}

ServingConfig
servingBase(const Options &opt)
{
    ServingConfig cfg;
    cfg.arrivals = ArrivalProcess::Trace;
    cfg.policy = SchedPolicy::Fifo;
    cfg.system.numThreads = opt.threads ? opt.threads : 1;
    return cfg;
}

double
cyclesToMs(double cycles, const ServingConfig &cfg)
{
    return cycles / cfg.system.clockHz * 1e3;
}

/** Every offered request is accounted for exactly once. */
bool
conserved(const ServingResult &r)
{
    return r.completed + r.rejected + r.shed + r.timedOut + r.pending
        == r.offered;
}

/** admission.sim.* and cluster.sim.* of one serving result. */
void
queueCounters(const ServingResult &r,
              const std::vector<ServingResult> &shards,
              const ServingConfig &cfg, Metrics &out)
{
    std::vector<double> waits;
    std::vector<std::pair<Cycles, int>> steps; // +1 arrive, -1 start
    double batch_sum = 0;
    for (const RequestRecord &q : r.requests) {
        if (!q.completed)
            continue;
        waits.push_back(double(q.queueing()));
        steps.push_back({q.arrival, +1});
        steps.push_back({q.start, -1});
        batch_sum += q.batchSize;
    }
    double mean_wait = 0;
    for (double w : waits)
        mean_wait += w;
    mean_wait = waits.empty() ? 0 : mean_wait / double(waits.size());

    // Requests waiting (arrived, not admitted) over [0, endCycle];
    // a request admitted on arrival never counts as queued.
    std::sort(steps.begin(), steps.end());
    double area = 0;
    int depth = 0, max_depth = 0;
    Cycles last = 0;
    for (size_t i = 0; i < steps.size();) {
        Cycles t = steps[i].first;
        area += double(depth) * double(t - last);
        for (; i < steps.size() && steps[i].first == t; ++i)
            depth += steps[i].second;
        max_depth = std::max(max_depth, depth);
        last = t;
    }
    double span = double(std::max<Cycles>(r.endCycle, 1));

    double lo = 1, hi = 0;
    for (const ServingResult &s : shards) {
        lo = std::min(lo, s.utilization);
        hi = std::max(hi, s.utilization);
    }
    out.push_back({"admission.sim.queue_mean_ms",
                   cyclesToMs(mean_wait, cfg), "sim_ms"});
    out.push_back({"admission.sim.queue_p99_ms",
                   cyclesToMs(nearestRank(waits, 99), cfg), "sim_ms"});
    out.push_back({"admission.sim.mean_queue_depth", area / span,
                   "requests"});
    out.push_back({"admission.sim.max_queue_depth", double(max_depth),
                   "requests"});
    out.push_back({"cluster.sim.utilization", r.utilization, "ratio"});
    out.push_back({"cluster.sim.shard_util_spread",
                   shards.empty() ? 0.0 : hi - lo, "ratio"});
    out.push_back({"cluster.sim.batch_mean",
                   r.completed ? batch_sum / double(r.completed) : 0.0,
                   "requests"});
}

// ---- resnet18 ---------------------------------------------------

/**
 * One batch-1 ResNet18 inference per op (Table 7): heuristic plan
 * on 210 cores, one MaiccSystem reset() between ops.
 */
class Resnet18 : public Workload
{
  public:
    explicit Resnet18(const Options &o) : opt(o) {}

    void
    setup(SpanRecorder &rec) override
    {
        sys = nullptr; // it holds references to net and weights
        Rng seeds(opt.seed); // sub-seeds of every input
        {
            Span s(rec, "nn.build");
            net = buildResNet18();
            weights = randomWeights(net, seeds.next());
            input = Tensor3(56, 56, 64);
            Rng rng(seeds.next());
            input.randomize(rng);
        }
        {
            Span s(rec, "mapping.plan");
            plan = planMapping(net, Strategy::Heuristic, 210);
        }
        SystemConfig cfg;
        cfg.numThreads = opt.threads ? opt.threads : 2;
        Span s(rec, "system.ctor");
        sys = std::make_unique<MaiccSystem>(net, weights, cfg);
    }

    void
    op(SpanRecorder &rec) override
    {
        {
            Span s(rec, "system.reset");
            sys->reset();
        }
        {
            Span s(rec, "system.run");
            last = sys->run(plan, input);
        }
        Span s(rec, "energy.compute");
        energy = computeEnergy(last.activity);
    }

    bool
    checkOp(std::string &why) override
    {
        if (first.empty()) {
            first = last.output().data;
            firstCycles = last.totalCycles;
            return true;
        }
        if (last.output().data != first) {
            why = "output differs from the first op's";
            return false;
        }
        if (last.totalCycles != firstCycles) {
            why = "totalCycles differs from the first op's";
            return false;
        }
        return true;
    }

    bool
    checkRun(SpanRecorder &rec, std::string &why) override
    {
        Span s(rec, "nn.reference");
        ReferenceResult ref = referenceRun(net, weights, input);
        if (ref.final().data != first) {
            why = "output differs from referenceRun";
            return false;
        }
        return true;
    }

    SimOutcome
    sim() const override
    {
        return {double(last.totalCycles), 1, 1, last.latencyMs()};
    }

    void
    counters(Metrics &out) const override
    {
        // Filter loads overlap the previous segment; the array waits
        // only for the part that outlasts it (start - previous end).
        double filter = 0, stream = 0;
        Cycles prev_end = 0;
        CoreBreakdown core;
        for (const SegmentRunStats &seg : last.segments) {
            filter += double(seg.start - prev_end);
            stream += double(seg.end - seg.start);
            prev_end = seg.end;
            for (const LayerRunStats &l : seg.layers) {
                core.compute += l.midCore.compute;
                core.sendIfmap += l.midCore.sendIfmap;
                core.sendOfmap += l.midCore.sendOfmap;
                core.waitIfmap += l.midCore.waitIfmap;
            }
        }
        double total = double(last.totalCycles);
        const ActivityCounts &a = last.activity;
        out.push_back({"mapping.segments", double(plan.segments.size()),
                       "count"});
        out.push_back({"mapping.eq1_err",
                       relErr(double(modelPlanLatency(net, plan)), total),
                       "ratio"});
        out.push_back({"system.sim.total_cycles", total, "cycles"});
        out.push_back({"system.sim.filter_load_cycles", filter,
                       "cycles"});
        out.push_back({"system.sim.stream_cycles", stream, "cycles"});
        out.push_back({"system.sim.core.compute_cycles", core.compute,
                       "cycles"});
        out.push_back({"system.sim.core.send_ifmap_cycles",
                       core.sendIfmap, "cycles"});
        out.push_back({"system.sim.core.send_ofmap_cycles",
                       core.sendOfmap, "cycles"});
        out.push_back({"system.sim.core.wait_ifmap_cycles",
                       core.waitIfmap, "cycles"});
        out.push_back({"system.sim.mac_activations",
                       double(a.macActivations), "count"});
        out.push_back({"system.sim.noc_flit_hops", double(a.nocFlitHops),
                       "count"});
        out.push_back({"system.sim.llc_accesses", double(a.llcAccesses),
                       "count"});
        out.push_back({"system.sim.dram_accesses",
                       double(a.dramAccesses), "count"});
        out.push_back({"energy.sim.avg_power_w",
                       energy.averagePowerW(last.totalCycles), "W"});
        out.push_back({"energy.sim.dram_share",
                       energy.dram / energy.total(), "ratio"});
    }

    void
    modelResults(ModelResults &res) const override
    {
        double ms = last.latencyMs();
        double per_watt =
            (1e3 / ms) / energy.averagePowerW(last.totalCycles);
        res.latencyErr = relErr(ms, kPaperLatencyMs);
        res.efficiencyErr = relErr(per_watt, kPaperSamplesPerSPerW);
    }

  private:
    Options opt;
    // Declared before sys: the system holds references to them.
    Network net;
    std::vector<Weights4> weights;
    Tensor3 input;
    MappingPlan plan;
    std::unique_ptr<MaiccSystem> sys;

    RunResult last;
    EnergyBreakdown energy;
    std::vector<int8_t> first;
    Cycles firstCycles = 0;
};

// ---- serve-sweep ------------------------------------------------

/**
 * The bench_serving latency-vs-load sweep: six rates, FIFO, batch
 * 1, one chip, through the timing-result cache, which is emptied at
 * the start of every op. 192 requests per rate (bench_serving
 * offers 48): with 48 the p99 at the heaviest rate spreads ~8%
 * from seed to seed and one seed in ten meets the SLO at the next
 * rate up, so neither number would hold steady across seeds.
 */
class ServeSweep : public Workload
{
  public:
    static constexpr Cycles kGaps[] = {2'000'000, 800'000, 300'000,
                                       100'000, 30'000, 8'000};
    static constexpr unsigned kRequests = 192;
    static constexpr unsigned kCacheEntries = 256;

    explicit ServeSweep(const Options &o) : opt(o) {}

    void
    setup(SpanRecorder &rec) override
    {
        Span s(rec, "nn.build");
        points.clear();
        Rng seeds(opt.seed); // sub-seeds of every input
        mix = std::make_unique<ServedMix>(seeds);
        uint64_t arrival_seed = seeds.next();
        traces.clear();
        for (Cycles gap : kGaps)
            traces.push_back(poissonTrace(arrival_seed, kRequests, gap));
        cfg = servingBase(opt);
        cfg.maxBatch = 1;
        cfg.queueCapacity = 1u << 20; // no admission control
        cfg.system.simCacheEntries = kCacheEntries;
    }

    void
    op(SpanRecorder &rec) override
    {
        TimingResultCache &cache = TimingResultCache::global();
        {
            Span s(rec, "sim_cache.reset");
            cache.reset();
        }
        misses = hits = 0;
        points.resize(traces.size());
        for (size_t i = 0; i < traces.size(); ++i) {
            Point &p = points[i];
            {
                Span s(rec, "serving.setup");
                p.ctx = std::make_unique<SimContext>();
                p.sim = std::make_unique<ServingSimulator>(cfg);
                mix->registerOn(*p.sim);
                std::istringstream in(traces[i]);
                p.loaded = p.sim->loadTrace(in);
                p.sim->attachTo(*p.ctx);
            }
            // Profile each model's minimum region up front, so that
            // run() below is the event loop alone (it finds these
            // profiles memoized).
            for (size_t m = 0; m < p.sim->servedModels().size(); ++m) {
                Span s(rec, "serving.profile");
                uint64_t before = cache.misses();
                p.sim->profile(m, p.sim->minCoresTable()[m]);
                bool miss = cache.misses() != before;
                s.rename(miss ? "serving.profile_miss"
                              : "serving.profile_hit");
                ++(miss ? misses : hits);
            }
            Span s(rec, "serving.run");
            p.res = p.sim->run();
        }
        cacheHits = cache.hits();
        cacheMisses = cache.misses();
        cacheEvictions = cache.evictions();
    }

    bool
    checkOp(std::string &why) override
    {
        std::string dump;
        bool ok = true;
        for (Point &p : points) {
            if (!p.loaded || !conserved(p.res)
                || p.res.offered != kRequests) {
                why = "arrival trace rejected or requests not conserved";
                ok = false;
            }
            dump += p.ctx->statsToJson().dump();
        }
        if (firstDump.empty())
            firstDump = dump;
        else if (dump != firstDump) {
            why = "stats-JSON dump differs from the first op's";
            ok = false;
        }
        outcome = summarize();
        points.clear(); // free them outside the timed region
        return ok;
    }

    SimOutcome sim() const override { return outcome.sim; }

    void
    counters(Metrics &out) const override
    {
        out.push_back({"serving.profile_misses", double(misses),
                       "count"});
        out.push_back({"serving.profile_hits", double(hits), "count"});
        out.push_back({"sim_cache.hits", double(cacheHits), "count"});
        out.push_back({"sim_cache.misses", double(cacheMisses),
                       "count"});
        uint64_t lookups = cacheHits + cacheMisses;
        out.push_back({"sim_cache.hit_ratio",
                       lookups ? double(cacheHits) / double(lookups) : 0,
                       "ratio"});
        out.push_back({"sim_cache.evictions", double(cacheEvictions),
                       "count"});
        for (const Metric &m : outcome.heaviest)
            out.push_back(m);
    }

    void
    modelResults(ModelResults &res) const override
    {
        res.maxRateUnderSlo = outcome.maxRate;
    }

  private:
    struct Point
    {
        std::unique_ptr<SimContext> ctx; // outlives sim
        std::unique_ptr<ServingSimulator> sim;
        bool loaded = false;
        ServingResult res;
    };

    struct Outcome
    {
        SimOutcome sim;
        double maxRate = 0;
        Metrics heaviest; ///< queue counters at the heaviest rate
    };

    Outcome
    summarize() const
    {
        Outcome o;
        Cycles min_service = ~Cycles(0);
        for (const Point &p : points)
            min_service = std::min(min_service, p.res.minServiceLatency);
        // A rate meets the SLO when its p99 stays within 4x the
        // smallest isolated service latency and no request failed.
        for (size_t i = 0; i < points.size(); ++i) {
            const ServingResult &r = points[i].res;
            o.sim.cycles += double(r.endCycle);
            o.sim.requests += double(r.offered);
            o.sim.requestsOk += double(r.completed);
            if (r.completed == r.offered
                && r.p99 <= 4.0 * double(min_service))
                o.maxRate = std::max(
                    o.maxRate, cfg.system.clockHz / double(kGaps[i]));
        }
        const ServingResult &heavy = points.back().res;
        o.sim.p99Ms = cyclesToMs(heavy.p99, cfg);
        queueCounters(heavy, {}, cfg, o.heaviest);
        return o;
    }

    Options opt;
    ServingConfig cfg;
    std::unique_ptr<ServedMix> mix;
    std::vector<std::string> traces;
    std::vector<Point> points;

    unsigned misses = 0, hits = 0;
    uint64_t cacheHits = 0, cacheMisses = 0, cacheEvictions = 0;
    std::string firstDump;
    Outcome outcome;
};

// ---- serve-backlog ----------------------------------------------

/**
 * 20,000 requests offered above the capacity of four chips, so a
 * backlog of thousands builds. Profiles are warmed during set-up,
 * so an op is the event loop, admission and dispatch alone.
 */
class ServeBacklog : public Workload
{
  public:
    static constexpr unsigned kRequests = 20'000;
    static constexpr Cycles kGap = 5'000;

    explicit ServeBacklog(const Options &o) : opt(o) {}

    void
    setup(SpanRecorder &rec) override
    {
        cluster.reset();
        ctx.reset();
        Rng seeds(opt.seed); // sub-seeds of every input
        {
            Span s(rec, "nn.build");
            mix = std::make_unique<ServedMix>(seeds);
        }
        cfg = servingBase(opt);
        cfg.chips = 4;
        cfg.shardPolicy = ShardPolicy::LeastLoaded;
        cfg.backfill = true;
        cfg.maxBatch = 4;
        cfg.queueCapacity = ~0u; // unbounded waiting room
        ctx = std::make_unique<SimContext>();
        cluster = std::make_unique<ClusterSimulator>(cfg);
        mix->registerOn(*cluster);
        std::istringstream in(poissonTrace(seeds.next(), kRequests, kGap));
        loaded = cluster->loadTrace(in);
        cluster->attach(*ctx);
        Span s(rec, "cluster.warm");
        cluster->run();
    }

    void
    op(SpanRecorder &rec) override
    {
        Span s(rec, "cluster.run");
        last = cluster->run();
    }

    bool
    checkOp(std::string &why) override
    {
        const ServingResult &r = last.aggregate;
        if (!loaded || !conserved(r) || r.offered != kRequests) {
            why = "arrival trace rejected or requests not conserved";
            return false;
        }
        std::string dump = ctx->statsToJson().dump();
        if (firstDump.empty())
            firstDump = dump;
        else if (dump != firstDump) {
            why = "stats-JSON dump differs from the first op's";
            return false;
        }
        return true;
    }

    SimOutcome
    sim() const override
    {
        const ServingResult &r = last.aggregate;
        return {double(r.endCycle), double(r.offered),
                double(r.completed), cyclesToMs(r.p99, cfg)};
    }

    void
    counters(Metrics &out) const override
    {
        queueCounters(last.aggregate, last.shards, cfg, out);
    }

  private:
    Options opt;
    ServingConfig cfg;
    std::unique_ptr<ServedMix> mix;
    std::unique_ptr<SimContext> ctx; // outlives cluster
    std::unique_ptr<ClusterSimulator> cluster;
    bool loaded = false;
    ClusterResult last;
    std::string firstDump;
};

// ---- node-kernels -----------------------------------------------

/**
 * The cycle-level models the system path never calls: the Table 4
 * conv on one MAICC node and on the scalar core, uniform-random
 * traffic on the 16x16 mesh, and a random-address stream drained
 * through ManyCoreDram's event kernel.
 */
class NodeKernels : public Workload
{
  public:
    /** Mesh traffic: 2 packets per node per 100 cycles, 5 flits. */
    static constexpr Cycles kNocCycles = 4'000;
    static constexpr double kNocRate = 0.02;
    static constexpr unsigned kDramRequests = 8'192;

    explicit NodeKernels(const Options &o) : opt(o) {}

    void
    setup(SpanRecorder &rec) override
    {
        Rng seeds(opt.seed); // sub-seeds of every input
        {
            Span s(rec, "core.inputs");
            ifmap = randomBytes(size_t(w.H) * w.W * w.C, seeds.next());
            filters = randomBytes(
                size_t(w.numFilters) * w.R * w.S * w.C, seeds.next());
            reference = referenceConvNode(w, ifmap, filters);
        }
        {
            Span s(rec, "core.build_program");
            program = buildConvNodeProgram(w);
            staticSchedule(program);
        }
        Span s(rec, "noc.inputs");
        Rng rng(seeds.next());
        const int nodes = 16 * 16;
        injections.clear();
        for (Cycles t = 0; t < kNocCycles; ++t) {
            for (int n = 0; n < nodes; ++n) {
                if (rng.real() < kNocRate)
                    injections.push_back(
                        {t, n, NodeId(rng.below(nodes))});
            }
        }
        dramStream.clear();
        for (unsigned i = 0; i < kDramRequests; ++i) {
            Addr a = Addr(rng.below(1u << 26)) * 64;
            dramStream.push_back({a, rng.below(2) != 0});
        }
    }

    void
    op(SpanRecorder &rec) override
    {
        {
            Span s(rec, "core.maicc");
            CMem cmem;
            FlatMemory ext;
            RowStore rows;
            NodeMemory mem(cmem, &ext);
            {
                Span st(rec, "cmem.stage");
                stageConvNode(w, cmem, rows, ifmap, filters);
            }
            CoreTimingModel model(program, mem, &cmem, &rows,
                                  CoreConfig{});
            {
                Span r(rec, "core.maicc.run");
                maicc = model.run();
            }
            macActivations = cmem.events().macActivations;
            maiccOut.clear();
            for (unsigned f = 0; f < w.numFilters; ++f)
                for (unsigned ox = 0; ox < w.outH(); ++ox)
                    for (unsigned oy = 0; oy < w.outW(); ++oy)
                        maiccOut.push_back(int8_t(
                            mem.peekDmem(convOutOffset(w, f, ox, oy))));
        }
        {
            Span s(rec, "core.scalar.run");
            scalar = runScalarConv(w, ifmap, filters);
        }
        {
            Span s(rec, "noc.run");
            MeshNoc noc;
            size_t k = 0;
            for (Cycles t = 0; t < kNocCycles; ++t) {
                for (; k < injections.size() && injections[k].cycle == t;
                     ++k) {
                    Packet p;
                    p.src = injections[k].src;
                    p.dst = injections[k].dst;
                    p.sizeFlits = 5;
                    noc.inject(p);
                }
                noc.tick();
            }
            noc.drain(2'000'000);
            nocCycles = noc.now();
            nocDelivered = noc.packetsDelivered();
            nocLatency = noc.avgPacketLatency();
            nocFlitHops = noc.flitHops();
            nocIdle = noc.idle();
        }
        Span s(rec, "dram.run");
        ManyCoreDram dram(32);
        for (size_t i = 0; i < dramStream.size(); ++i)
            dram.enqueue(dramStream[i].addr, dramStream[i].write, i, 0);
        EventQueue eq;
        dramDone.clear();
        dramEnd = dram.drainVia(eq, &dramDone);
        engineEvents = eq.eventsRun();
        dramStats = dram.totalStats();
    }

    bool
    checkOp(std::string &why) override
    {
        bool ok = true;
        if (maiccOut != reference || scalar.out != reference) {
            why = "node conv output differs from referenceConvNode";
            ok = false;
        }
        if (nocDelivered != injections.size() || !nocIdle) {
            why = "not every injected NoC packet was delivered";
            ok = false;
        }
        if (dramDone.size() != dramStream.size()) {
            why = "not every DRAM request completed";
            ok = false;
        }
        SimOutcome now = sim();
        if (!haveFirst) {
            first = now;
            haveFirst = true;
        } else if (!(now == first)) {
            why = "simulated outcome differs from the first op's";
            ok = false;
        }
        return ok;
    }

    SimOutcome
    sim() const override
    {
        SimOutcome o;
        o.cycles = double(maicc.cycles) + double(scalar.stats.cycles)
            + double(nocCycles) + double(dramEnd);
        o.requests = double(injections.size() + dramStream.size());
        o.requestsOk = double(nocDelivered + dramDone.size());
        std::vector<double> lat;
        for (const DramCompletion &c : dramDone)
            lat.push_back(double(c.finishedAt)); // all issued at 0
        o.p99Ms = nearestRank(lat, 99) / 1e6;  // 1 GHz
        return o;
    }

    void
    counters(Metrics &out) const override
    {
        auto core = [&](const std::string &k, const CoreRunStats &c) {
            out.push_back({"core." + k + ".sim.cycles", double(c.cycles),
                           "cycles"});
            out.push_back({"core." + k + ".sim.insts", double(c.insts),
                           "count"});
            out.push_back({"core." + k + ".sim.ipc", c.ipc(), "ratio"});
        };
        core("maicc", maicc);
        core("scalar", scalar.stats);
        out.push_back({"core.maicc.sim.cmem_busy_cycles",
                       double(maicc.cmemBusyCycles), "cycles"});
        out.push_back({"core.maicc.sim.stall_raw",
                       double(maicc.stallRaw), "cycles"});
        out.push_back({"core.maicc.sim.stall_queue_full",
                       double(maicc.stallQueueFull), "cycles"});
        out.push_back({"core.maicc.sim.stall_structural",
                       double(maicc.stallStructural), "cycles"});
        out.push_back({"cmem.sim.mac_activations",
                       double(macActivations), "count"});
        out.push_back({"noc.sim.cycles", double(nocCycles), "cycles"});
        out.push_back({"noc.sim.packets", double(nocDelivered),
                       "count"});
        out.push_back({"noc.sim.avg_latency", nocLatency, "cycles"});
        out.push_back({"noc.sim.flit_hops", double(nocFlitHops),
                       "count"});
        uint64_t accesses = dramStats.reads + dramStats.writes;
        out.push_back({"dram.sim.requests", double(accesses), "count"});
        out.push_back({"dram.sim.row_hit_ratio",
                       accesses ? double(dramStats.rowHits)
                               / double(accesses)
                                : 0.0,
                       "ratio"});
        out.push_back({"dram.sim.busy_cycles",
                       double(dramStats.busyCycles), "cycles"});
        out.push_back({"engine.events", double(engineEvents), "count"});
    }

    void
    modelResults(ModelResults &res) const override
    {
        res.nodeCyclesErr = relErr(double(maicc.cycles), kPaperNodeCycles);
    }

  private:
    struct Injection
    {
        Cycles cycle;
        NodeId src, dst;
    };

    struct DramAccess
    {
        Addr addr;
        bool write;
    };

    static std::vector<int8_t>
    randomBytes(size_t n, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<int8_t> v(n);
        for (auto &b : v)
            b = int8_t(rng.range(-5, 5));
        return v;
    }

    Options opt;
    ConvNodeWorkload w; // the Table 4 layer
    std::vector<int8_t> ifmap, filters, reference;
    rv32::Program program;
    std::vector<Injection> injections;
    std::vector<DramAccess> dramStream;

    CoreRunStats maicc;
    uint64_t macActivations = 0;
    std::vector<int8_t> maiccOut;
    ScalarConvResult scalar;
    Cycles nocCycles = 0;
    uint64_t nocDelivered = 0, nocFlitHops = 0;
    double nocLatency = 0;
    bool nocIdle = false;
    std::vector<DramCompletion> dramDone;
    Cycles dramEnd = 0;
    uint64_t engineEvents = 0;
    DramStats dramStats;
    SimOutcome first;
    bool haveFirst = false;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opt)
{
    if (name == "resnet18")
        return std::make_unique<Resnet18>(opt);
    if (name == "serve-sweep")
        return std::make_unique<ServeSweep>(opt);
    if (name == "serve-backlog")
        return std::make_unique<ServeBacklog>(opt);
    if (name == "node-kernels")
        return std::make_unique<NodeKernels>(opt);
    return nullptr;
}

bool
probeModelResults(const Options &opt, ModelResults &res)
{
    bool ok = true;
    auto probe = [&](const char *name) {
        SpanRecorder off;
        auto w = makeWorkload(name, opt);
        w->setup(off);
        w->op(off);
        std::string why;
        ok = w->checkOp(why) && ok;
        w->modelResults(res);
    };
    if (res.latencyErr < 0 || res.efficiencyErr < 0)
        probe("resnet18");
    if (res.nodeCyclesErr < 0)
        probe("node-kernels");
    if (res.maxRateUnderSlo < 0)
        probe("serve-sweep");
    return ok;
}

} // namespace perfbench
