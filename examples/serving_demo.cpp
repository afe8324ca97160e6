/**
 * @file
 * Minimal request-driven serving walk-through: register two models
 * (the radar as priority class 0, the camera as class 1), offer a
 * short Poisson request stream, and print what happened to every
 * request plus the aggregate and per-class serving metrics. Try
 * `--policy=sjf`, `--policy=priority`, or `--slo-cycles=900000` to
 * watch the admission order and SLO columns change, or
 * `--chips=2 --shard-policy=least-loaded` to serve the same stream
 * over a sharded two-chip cluster (the chip column shows where
 * each request ran). Exits with "[ok]" so the build can smoke-test
 * it (see examples/CMakeLists).
 *
 * Usage: serving_demo [common flags, see common/cli.hh]
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "runtime/cluster.hh"
#include "runtime/serving.hh"

using namespace maicc;

int
main(int argc, char **argv)
{
    SimConfig defaults;
    defaults.serving.seed = 7;
    defaults.serving.offeredRequests = 12;
    defaults.serving.meanInterarrival = 150'000; // moderately loaded
    defaults.serving.maxBatch = 2;
    cli::Options opt("serving_demo", argc, argv, defaults);
    if (!opt.finish())
        return opt.exitCode();
    if (opt.dumpConfigOnly())
        return 0;

    const ServingConfig &cfg = opt.config.serving;

    Network camera = buildSmallCnn(16, 16, 64);
    Network radar = buildSmallCnn(8, 8, 64);
    auto camW = randomWeights(camera, 2023);
    auto radW = randomWeights(radar, 2024);
    Tensor3 camIn(16, 16, 64), radIn(8, 8, 64);
    Rng rng(2025);
    camIn.randomize(rng);
    radIn.randomize(rng);

    SimContext ctx;
    ClusterSimulator sim(cfg);
    sim.attach(ctx);
    sim.addModel({"camera", &camera, &camW, &camIn, 2.0, 0, 1});
    sim.addModel({"radar", &radar, &radW, &radIn, 1.0, 0, 0});

    std::printf("policy %s%s", enumName(cfg.policy),
                cfg.backfill ? " + backfill" : "");
    if (sim.chips() > 1)
        std::printf("   %u chips, dispatch %s", sim.chips(),
                    enumName(cfg.shardPolicy));
    std::printf("\n\n");
    ClusterResult cr = sim.run();
    const ServingResult &r = cr.aggregate;

    const char *names[] = {"camera", "radar"};
    TextTable t({"req", "model", "class", "chip", "arrival",
                 "queued", "latency", "cores", "batch", "state"});
    for (const RequestRecord &q : r.requests) {
        bool ran = !q.rejected && !q.shed && !q.timedOut;
        const char *state = q.shed ? "shed"
            : q.timedOut             ? "timeout"
            : q.rejected             ? "rejected"
            : q.completed            ? "done"
                                     : "pending";
        t.addRow({TextTable::num(q.id), names[q.model],
                  TextTable::num(uint64_t(q.priorityClass)),
                  !ran ? "-" : TextTable::num(uint64_t(q.shard)),
                  TextTable::num(q.arrival),
                  !ran ? "-" : TextTable::num(q.queueing()),
                  q.completed ? TextTable::num(q.latency()) : "-",
                  TextTable::num(uint64_t(q.cores)),
                  TextTable::num(uint64_t(q.batchSize)), state});
    }
    t.print(std::cout);

    if (sim.chips() > 1) {
        for (size_t i = 0; i < cr.shards.size(); ++i) {
            const ServingResult &sh = cr.shards[i];
            std::printf("chip%zu: %llu served, utilization %.1f%%\n",
                        i,
                        static_cast<unsigned long long>(
                            sh.completed),
                        sh.utilization * 100);
        }
    }

    for (const ClassResult &c : r.classes) {
        std::printf("\nclass %u: %llu offered, p50 %.0f, "
                    "p99 %.0f cycles",
                    c.priorityClass,
                    static_cast<unsigned long long>(c.offered),
                    c.p50, c.p99);
        if (r.sloCycles)
            std::printf(", SLO attainment %.1f%%",
                        c.sloAttainment() * 100);
    }
    std::printf("\n");

    std::printf("\ncompleted %llu/%llu   p50 %.0f   p95 %.0f   "
                "p99 %.0f cycles\n",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.offered), r.p50,
                r.p95, r.p99);
    std::printf("mean queueing %.0f cycles   utilization %.1f%%   "
                "throughput %.1f req/s\n",
                r.meanQueueing, r.utilization * 100,
                r.throughput(cfg.system.clockHz));

    // The simulator published the same numbers into its own
    // StatGroup (SimComponent::stats) at the end of run(); with
    // more than one chip the group also carries per-chip children.
    sim.stats().dump(std::cout);

    // --trace=FILE dumps the per-request disposition records for
    // offline re-checking: check_trace --offered=N FILE.
    if (!opt.tracePath().empty()) {
        trace::TraceSink sink;
        appendServingTrace(r, sink);
        if (!sink.writeJsonlFile(opt.tracePath()))
            std::fprintf(stderr, "cannot write trace to %s\n",
                         opt.tracePath().c_str());
    }

    // A fault-free demo must serve everything; a recovery run
    // (faults/timeouts/shedding) legitimately drops requests, so
    // only the conservation check (asserted inside run()) gates it.
    bool ok = recoveryActive(cfg)
        || (r.completed == r.offered && r.rejected == 0);
    ok = opt.writeStats(ctx) && ok;
    std::printf("%s\n", ok ? "[ok]" : "[FAIL]");
    return ok ? 0 : 1;
}
