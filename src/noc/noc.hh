/**
 * @file
 * Cycle-level 2D-mesh network-on-chip (the booksim2 substitute,
 * paper §3.1/§5): input-queued wormhole routers, dimension-order
 * (X-Y) routing, credit-based flow control, one flit per link per
 * cycle. Remote load/store packets carry 32-bit payloads (§3.1);
 * a CMem row transfer is one head flit plus eight payload flits.
 *
 * The model counts flit-hops so the energy model can charge the
 * paper's 5.4 pJ per flit per hop.
 *
 * Per move, not per idle router, is where the host time goes: in
 * the node-kernels traffic nearly every router holding flits has a
 * ready front each cycle. So each router caches what arbitration
 * needs of its own inputs (front readiness and requested output,
 * a non-empty mask, a full-downstream mask) and arbitration reads
 * nothing else.
 */

#ifndef MAICC_NOC_NOC_HH
#define MAICC_NOC_NOC_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/sim_component.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace maicc
{

/** Topology and router parameters. */
struct NocConfig
{
    int width = 16;              ///< mesh columns
    int height = 16;             ///< mesh rows
    unsigned routerLatency = 2;  ///< per-hop pipeline cycles
    unsigned queueDepth = 4;     ///< flits per input queue
};

/** An in-flight packet. Payload words ride with the head flit. */
struct Packet
{
    NodeId src = 0;
    NodeId dst = 0;
    unsigned sizeFlits = 1; ///< head + payload flits
    uint64_t id = 0;
    uint64_t tag = 0;       ///< user cookie (message handle)
    Cycles injectTime = 0;
};

/**
 * The mesh. Drive with tick(); packets appear on per-node delivery
 * queues once their tail flit ejects.
 *
 * Concurrency model (DESIGN.md): the mesh is *mesh-shared* state
 * with a single owner — all routers advance together in tick(), on
 * one thread; inject()/tick()/delivered() are owner-thread only.
 */
class MeshNoc : public SimComponent
{
  public:
    /**
     * Router port numbering, public so traces (common/trace.hh)
     * and the invariant checkers (src/check) can name ports.
     */
    static constexpr int dirLocal = 0;
    static constexpr int dirEast = 1;
    static constexpr int dirWest = 2;
    static constexpr int dirSouth = 3;
    static constexpr int dirNorth = 4;
    static constexpr int numDirs = 5;

    /** Flit::dst is 16 bits: the largest mesh a flit can address. */
    static constexpr int kMaxNodes = 1 << 16;

    /** Fatal unless @p cfg is a 1x1 .. kMaxNodes mesh with queues. */
    explicit MeshNoc(const NocConfig &cfg = NocConfig{});

    const NocConfig &config() const { return cfg; }

    NodeId
    nodeId(int x, int y) const
    {
        return y * cfg.width + x;
    }

    NodeCoord
    coord(NodeId id) const
    {
        return {id % cfg.width, id / cfg.width};
    }

    /** Manhattan distance between two nodes. */
    unsigned hops(NodeId a, NodeId b) const;

    /**
     * X-Y route: the output direction at router @p at towards
     * @p dst (X first, then Y, dirLocal on arrival). Computed
     * without branches, from the signs of dx and dy.
     */
    int
    route(NodeId at, NodeId dst) const
    {
        const NodeCoord &ca = coords[at], &cd = coords[dst];
        int sx = (cd.x > ca.x) - (cd.x < ca.x);
        int sy = (cd.y > ca.y) - (cd.y < ca.y);
        return kRoute[sx + 1][sy + 1];
    }

    /**
     * Zero-load latency from injection to full delivery: every
     * traversed router (hops + 1 of them) costs routerLatency
     * pipeline cycles plus one link cycle; the tail trails the
     * head by sizeFlits - 1 cycles.
     */
    Cycles
    zeroLoadLatency(unsigned hop_count, unsigned size_flits) const
    {
        return Cycles(hop_count + 1) * (cfg.routerLatency + 1)
            + (size_flits - 1);
    }

    /** Queue @p pkt for injection at the current cycle. */
    void inject(Packet pkt);

    /** Advance one cycle. */
    void tick();

    /**
     * Run until nothing is in flight (or @p max_cycles). Cycles
     * in which no flit can move (all queued flits still in router
     * pipelines) are skipped in one jump to the next eligibility
     * cycle — the observable end state, final cycle count, and
     * every counter are identical to a per-cycle tick() loop (the
     * skipped ticks are provably no-ops).
     */
    void drain(Cycles max_cycles = 10'000'000);

    Cycles now() const { return cycle; }

    /**
     * True when no flits are queued or in flight anywhere.
     * O(1): maintained packet/flit counters, not a mesh scan.
     */
    bool idle() const;

    /** Packets fully delivered at node @p id, in arrival order. */
    std::deque<Packet> &delivered(NodeId id);

    uint64_t flitHops() const { return flitHopCount; }
    uint64_t packetsDelivered() const { return deliveredCount; }

    /** Mean packet latency (inject -> tail ejected). */
    double avgPacketLatency() const;

    /**
     * Return to cycle 0 with empty queues and zeroed counters;
     * the trace sink (SimComponent::setTrace) stays attached.
     */
    void reset() override;

    /** Publish flit-hop/delivery/latency counters into stats(). */
    void recordStats() override;

  private:
    /** kRoute[sign(dx) + 1][sign(dy) + 1]: X first, then Y. */
    static constexpr int8_t kRoute[3][3] = {
        {dirWest, dirWest, dirWest},
        {dirNorth, dirLocal, dirSouth},
        {dirEast, dirEast, dirEast},
    };

    static constexpr Cycles kNeverReady = ~Cycles(0);

    struct Flit
    {
        Cycles readyAt = 0;     ///< router-pipeline eligibility
        uint32_t packetIdx = 0; ///< index into inFlight
        uint16_t dst = 0;       ///< NodeId; kMaxNodes bounds it
        int8_t outDir = 0;      ///< route() at the holding router
        bool head : 1 = false;
        bool tail : 1 = false;
    };
    static_assert(sizeof(Flit) == 16);

    /**
     * One input queue: a ring of cfg.queueDepth slots in `slots`.
     * Credits never let more than queueDepth flits in, so the ring
     * cannot overflow.
     */
    struct InputQueue
    {
        uint32_t front = 0; ///< ring index of the oldest flit
        uint32_t size = 0;
    };

    /**
     * One router. The front-flit cache and the masks hold all that
     * arbitration reads; the push/pop helpers keep them equal to
     * the queues (and fullOut to the downstream queues).
     */
    struct Router
    {
        uint8_t nonEmpty = 0; ///< bit i: input i holds a flit
        uint8_t locked = 0;   ///< bit o: output o owned by a packet
        /** Bit o: the input output o feeds is full (no credit).
         * Bit 7 stands for the local input, fed by no router; no
         * output reads it. */
        uint8_t fullOut = 0;
        /** Front flit's routed output if it is a head flit, else
         * numDirs (a request no output reads). */
        uint8_t frontReq[numDirs] = {};
        uint8_t lockedTo[numDirs] = {}; ///< owner input, if locked
        uint8_t rrNext[numDirs] = {};   ///< round-robin pointer
        /** Front flit's readyAt; kNeverReady for an empty input,
         * so an empty input is never ready. */
        Cycles frontReady[numDirs] = {kNeverReady, kNeverReady,
                                      kNeverReady, kNeverReady,
                                      kNeverReady};
        InputQueue in[numDirs];
    };

    /** A granted output of one tick: phase 1 builds, phase 2 commits. */
    struct Move
    {
        NodeId router;
        int8_t inDir;
        int8_t outDir;
    };

    static NocConfig validated(const NocConfig &cfg);

    /** What a front flit requests: its routed output if it is a
     * head flit, else numDirs. */
    static uint8_t
    frontRequest(const Flit &f)
    {
        return f.head ? uint8_t(f.outDir) : uint8_t(numDirs);
    }

    /** Index in `slots` of ring slot @p k of input @p in_dir at
     * router @p n. */
    size_t
    slotIndex(NodeId n, int in_dir, uint32_t k) const
    {
        return (size_t(n) * numDirs + in_dir) * cfg.queueDepth + k;
    }
    /** The oldest flit of a non-empty input queue. */
    const Flit &
    front(NodeId n, int in_dir) const
    {
        return slots[slotIndex(n, in_dir, routers[n].in[in_dir].front)];
    }

    /** Queue-maintenance helpers keeping the router caches and the
     * active-router bitset consistent with every push/pop. The push
     * routes the flit for router @p n. */
    void pushRouterFlit(NodeId n, int in_dir, Flit f);
    void popRouterFlit(NodeId n, int in_dir);

    /** Phase 1 for one router: append its granted moves. */
    void arbitrate(NodeId n);
    /** Phase 3 for one node: inject at most one flit. */
    void injectOne(NodeId n);

    /**
     * Earliest front-flit pipeline eligibility at or after
     * @p from, over the active routers only; kNeverReady when no
     * front can ever become newly eligible (the deadlock test in
     * the event drain).
     */
    Cycles nextFrontReadyAtOrAfter(Cycles from) const;

    NocConfig cfg;
    Cycles cycle = 0;
    std::vector<Router> routers;
    std::vector<Flit> slots; ///< every input ring, router-major
    /** Router fed by output `dir` of router `n` at n * numDirs +
     * dir; -1 off the mesh edge, n itself for the local port. It
     * is also the router feeding input `dir` of n. */
    std::vector<NodeId> neighbour;
    std::vector<NodeCoord> coords; ///< coord(n), without a division
    std::vector<std::deque<Packet>> injectQueues;
    std::vector<std::deque<Packet>> deliverQueues;
    std::vector<Packet> inFlight;     ///< packet table slots
    std::vector<uint32_t> freeSlots;  ///< recycled table slots
    std::vector<unsigned> injProgress;    ///< per-node flit count
    std::vector<uint32_t> frontPacketIdx; ///< per-node table slot
    std::vector<Move> moves;          ///< this tick's grants
    uint64_t nextPacketId = 1;
    uint64_t flitHopCount = 0;
    uint64_t deliveredCount = 0;
    double latencySum = 0.0;

    // Active-set / O(1)-idle bookkeeping (kept consistent by
    // pushRouterFlit/popRouterFlit, injection and ejection; a hop
    // leaves queuedFlits unchanged).
    // activeRouters/activeInjectors are bitsets, one bit per node,
    // walked low word first and lowest bit first: ascending node
    // id, the same relative order as a sweep over every node —
    // that is what keeps the move list (and thus every commit,
    // stat update, and floating-point accumulation) identical to a
    // full sweep's.
    uint64_t queuedFlits = 0;          ///< total router-queued flits
    uint64_t pendingInjectPackets = 0; ///< packets not fully injected
    std::vector<uint64_t> activeRouters;   ///< routers with >=1 flit
    std::vector<uint64_t> activeInjectors; ///< nodes with backlog
    bool lastTickProgress = false; ///< last tick moved/injected
};

} // namespace maicc

#endif // MAICC_NOC_NOC_HH
