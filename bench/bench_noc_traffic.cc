/**
 * @file
 * NoC characterization (booksim2-substitute validation): average
 * packet latency vs offered load under uniform-random traffic on
 * the 16x16 mesh, plus the chain pattern MAICC's node groups
 * actually generate. Not a paper figure, but the standard
 * evidence that the mesh substrate behaves like a real
 * wormhole/X-Y network: flat latency at low load, saturation as
 * offered load approaches the bisection limit.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "common/trace.hh"
#include "noc/noc.hh"

using namespace maicc;

namespace
{

/** Run uniform-random traffic at @p rate pkts/node/100-cycles. */
double
uniformRandom(double rate, Cycles horizon = 20'000)
{
    MeshNoc noc;
    Rng rng(42);
    int nodes = 16 * 16;
    for (Cycles t = 0; t < horizon; ++t) {
        for (int n = 0; n < nodes; ++n) {
            if (rng.real() < rate / 100.0) {
                Packet p;
                p.src = n;
                p.dst = static_cast<NodeId>(rng.below(nodes));
                p.sizeFlits = 5;
                noc.inject(p);
            }
        }
        noc.tick();
    }
    noc.drain(2'000'000);
    return noc.avgPacketLatency();
}

} // namespace

int
main(int argc, char **argv)
{
    cli::Options opt("bench_noc_traffic", argc, argv);
    if (!opt.finish())
        return opt.exitCode();
    if (opt.dumpConfigOnly())
        return 0;
    const std::string &tracePath = opt.tracePath();

    std::printf("== Mesh NoC: uniform-random latency vs load "
                "(5-flit packets) ==\n\n");
    TextTable t({"Injection (pkts/node/100cyc)", "Avg latency",
                 "vs zero-load"});
    MeshNoc probe;
    double zero = probe.zeroLoadLatency(8, 5); // ~avg distance
    for (double rate : {0.5, 1.0, 2.0, 4.0, 6.0}) {
        double lat = uniformRandom(rate);
        t.addRow({TextTable::num(rate, 1), TextTable::num(lat, 1),
                  TextTable::num(lat / zero, 2) + "x"});
    }
    t.print(std::cout);
    std::printf("\nZero-load reference (8 hops, 5 flits): %.0f "
                "cycles. Latency is flat at low load and grows "
                "super-linearly toward saturation.\n\n",
                zero);

    // The traffic MAICC actually generates: neighbour chains.
    // This phase is the one dumped by --trace=FILE (the uniform
    // sweep above would produce hundreds of MB of flit records).
    std::printf("== Chain traffic (MAICC node groups) ==\n");
    SimContext ctx;
    MeshNoc noc(opt.config.system.noc);
    noc.attachTo(ctx);
    trace::TraceSink sink;
    if (!tracePath.empty())
        noc.setTrace(&sink);
    // One forward to the east neighbour from every compute node
    // but the region's last column.
    const ArrayGeometry &geo = opt.config.system.geometry;
    unsigned forwards = 0;
    for (int y = geo.computeY0; y < geo.computeY0 + geo.computeH; ++y) {
        for (int x = geo.computeX0;
             x + 1 < geo.computeX0 + geo.computeW; ++x) {
            ++forwards;
            for (int r = 0; r < 8; ++r) {
                Packet p;
                p.src = noc.nodeId(x, y);
                p.dst = noc.nodeId(x + 1, y);
                p.sizeFlits = 9;
                noc.inject(p);
            }
        }
    }
    noc.drain();
    std::printf("%u simultaneous vector forwards (8x9 flits "
                "each): %llu cycles, avg latency %.1f, %llu "
                "flit-hops\n",
                forwards, static_cast<unsigned long long>(noc.now()),
                noc.avgPacketLatency(),
                static_cast<unsigned long long>(noc.flitHops()));
    std::printf("Neighbour chains never share links (zig-zag "
                "placement), so the whole array forwards in "
                "~vector-serialization time.\n");
    if (!tracePath.empty()) {
        if (sink.writeJsonlFile(tracePath)) {
            std::printf("trace: %zu pkt + %zu flit records -> %s "
                        "(check with: check_trace "
                        "--queue-depth=%u --cycles=%llu %s)\n",
                        sink.packets.size(), sink.flits.size(),
                        tracePath.c_str(),
                        noc.config().queueDepth,
                        static_cast<unsigned long long>(noc.now()),
                        tracePath.c_str());
        } else {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         tracePath.c_str());
            return 1;
        }
    }
    return opt.writeStats(ctx) ? 0 : 1;
}
