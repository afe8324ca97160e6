#include "noc/noc.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/trace.hh"

namespace maicc
{

namespace
{

/**
 * Input port a flit lands on after leaving through @p out_dir; an
 * involution, so also the upstream router's output that feeds
 * input @p out_dir.
 */
constexpr int kArrivalDir[MeshNoc::numDirs] = {
    -1, MeshNoc::dirWest, MeshNoc::dirEast, MeshNoc::dirNorth,
    MeshNoc::dirSouth};

void
setBit(std::vector<uint64_t> &words, NodeId n)
{
    words[n / 64] |= uint64_t(1) << (n % 64);
}

void
clearBit(std::vector<uint64_t> &words, NodeId n)
{
    words[n / 64] &= ~(uint64_t(1) << (n % 64));
}

/**
 * Call @p fn on every set bit of @p words in ascending node id.
 * Each word is read before its bits are visited, so @p fn may
 * clear the bit it was called for.
 */
template <typename Fn>
void
forEachSetBit(const std::vector<uint64_t> &words, Fn fn)
{
    for (size_t w = 0; w < words.size(); ++w) {
        for (uint64_t bits = words[w]; bits; bits &= bits - 1)
            fn(NodeId(w * 64 + std::countr_zero(bits)));
    }
}

} // namespace

// The trace layer names ports without including this header; keep
// the two numberings locked together.
static_assert(MeshNoc::dirLocal == trace::kDirLocal);
static_assert(MeshNoc::dirEast == trace::kDirEast);
static_assert(MeshNoc::dirWest == trace::kDirWest);
static_assert(MeshNoc::dirSouth == trace::kDirSouth);
static_assert(MeshNoc::dirNorth == trace::kDirNorth);
static_assert(MeshNoc::numDirs == trace::kDirInject);

NocConfig
MeshNoc::validated(const NocConfig &cfg)
{
    // Checked before any per-node table is sized from it.
    if (cfg.width < 1 || cfg.height < 1
        || int64_t(cfg.width) * cfg.height > kMaxNodes)
        maicc_fatal("a %d x %d mesh is outside 1 .. %d nodes",
                    cfg.width, cfg.height, kMaxNodes);
    maicc_assert(cfg.queueDepth >= 1);
    return cfg;
}

MeshNoc::MeshNoc(const NocConfig &config)
    : SimComponent("noc"), cfg(validated(config)),
      routers(cfg.width * cfg.height),
      slots(size_t(cfg.width) * cfg.height * numDirs
            * cfg.queueDepth),
      neighbour(size_t(cfg.width) * cfg.height * numDirs, -1),
      injectQueues(cfg.width * cfg.height),
      deliverQueues(cfg.width * cfg.height),
      injProgress(cfg.width * cfg.height, 0),
      frontPacketIdx(cfg.width * cfg.height, 0),
      activeRouters((cfg.width * cfg.height + 63) / 64, 0),
      activeInjectors((cfg.width * cfg.height + 63) / 64, 0)
{
    coords.reserve(routers.size());
    for (int y = 0; y < cfg.height; ++y) {
        for (int x = 0; x < cfg.width; ++x) {
            coords.push_back({x, y});
            NodeId *out = &neighbour[size_t(nodeId(x, y)) * numDirs];
            out[dirLocal] = nodeId(x, y);
            if (x + 1 < cfg.width)
                out[dirEast] = nodeId(x + 1, y);
            if (x > 0)
                out[dirWest] = nodeId(x - 1, y);
            if (y + 1 < cfg.height)
                out[dirSouth] = nodeId(x, y + 1);
            if (y > 0)
                out[dirNorth] = nodeId(x, y - 1);
        }
    }
}

void
MeshNoc::reset()
{
    cycle = 0;
    std::fill(routers.begin(), routers.end(), Router{});
    for (auto &q : injectQueues)
        q.clear();
    for (auto &q : deliverQueues)
        q.clear();
    inFlight.clear();
    freeSlots.clear();
    std::fill(injProgress.begin(), injProgress.end(), 0u);
    std::fill(frontPacketIdx.begin(), frontPacketIdx.end(), 0u);
    nextPacketId = 1;
    flitHopCount = 0;
    deliveredCount = 0;
    latencySum = 0.0;
    queuedFlits = 0;
    pendingInjectPackets = 0;
    std::fill(activeRouters.begin(), activeRouters.end(), 0);
    std::fill(activeInjectors.begin(), activeInjectors.end(), 0);
    lastTickProgress = false;
    SimComponent::reset();
}

void
MeshNoc::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("flitHops", flitHopCount);
    publish("packetsDelivered", deliveredCount);
    publish("cycles", cycle);
    auto &lat = stats().summary("packetLatency");
    lat.reset();
    if (deliveredCount)
        lat.sample(latencySum / double(deliveredCount));
}

unsigned
MeshNoc::hops(NodeId a, NodeId b) const
{
    NodeCoord ca = coord(a), cb = coord(b);
    return std::abs(ca.x - cb.x) + std::abs(ca.y - cb.y);
}

void
MeshNoc::inject(Packet pkt)
{
    maicc_assert(pkt.src >= 0
                 && pkt.src < cfg.width * cfg.height);
    maicc_assert(pkt.dst >= 0
                 && pkt.dst < cfg.width * cfg.height);
    maicc_assert(pkt.sizeFlits >= 1);
    pkt.id = nextPacketId++;
    pkt.injectTime = cycle;
    if (trace::kEnabled && sink) {
        sink->packets.push_back({pkt.id, pkt.src, pkt.dst,
                                 pkt.sizeFlits, pkt.injectTime});
    }
    ++pendingInjectPackets;
    setBit(activeInjectors, pkt.src);
    injectQueues[pkt.src].push_back(pkt);
}

namespace
{

/** fullOut bit, at the router feeding input @p in_dir, of the
 * output that feeds it; 7 (read by none) for the local input. */
constexpr int
creditBit(int in_dir)
{
    return in_dir == MeshNoc::dirLocal ? 7 : kArrivalDir[in_dir];
}
static_assert(creditBit(MeshNoc::dirLocal) >= MeshNoc::numDirs);

} // namespace

// Push and pop run once per flit-hop. They keep the router caches
// without data-dependent branches: every field is written, with a
// select deciding between the new and the old value, and the
// local input's credit goes to a bit (of the router itself) that
// no output reads. They and arbitrate() are `inline` so that
// tick() compiles into one loop body.

inline void
MeshNoc::pushRouterFlit(NodeId n, int in_dir, Flit f)
{
    Router &r = routers[n];
    InputQueue &q = r.in[in_dir];
    maicc_assert(q.size < cfg.queueDepth);
    uint32_t k = q.front + q.size;
    if (k >= cfg.queueDepth)
        k -= cfg.queueDepth;
    f.outDir = static_cast<int8_t>(route(n, f.dst));
    slots[slotIndex(n, in_dir, k)] = f;
    const bool first = q.size++ == 0;
    r.frontReady[in_dir] = first ? f.readyAt : r.frontReady[in_dir];
    r.frontReq[in_dir] = first ? frontRequest(f) : r.frontReq[in_dir];
    r.nonEmpty |= 1u << in_dir;
    routers[neighbour[size_t(n) * numDirs + in_dir]].fullOut |=
        unsigned(q.size == cfg.queueDepth) << creditBit(in_dir);
    setBit(activeRouters, n);
}

inline void
MeshNoc::popRouterFlit(NodeId n, int in_dir)
{
    Router &r = routers[n];
    InputQueue &q = r.in[in_dir];
    routers[neighbour[size_t(n) * numDirs + in_dir]].fullOut &=
        ~(unsigned(q.size == cfg.queueDepth) << creditBit(in_dir));
    q.front = q.front + 1 == cfg.queueDepth ? 0 : q.front + 1;
    --q.size;
    // The next front; a stale slot when the queue is now empty,
    // whose request is then never ready.
    const Flit &f = front(n, in_dir);
    const bool empty = q.size == 0;
    r.frontReady[in_dir] = empty ? kNeverReady : f.readyAt;
    r.frontReq[in_dir] = frontRequest(f);
    r.nonEmpty &= ~(unsigned(empty) << in_dir);
    activeRouters[n / 64] &= ~(uint64_t(r.nonEmpty == 0) << (n % 64));
}

Cycles
MeshNoc::nextFrontReadyAtOrAfter(Cycles from) const
{
    Cycles best = kNeverReady;
    forEachSetBit(activeRouters, [&](NodeId n) {
        for (Cycles t : routers[n].frontReady) {
            if (t >= from && t < best)
                best = t;
        }
    });
    return best;
}

std::deque<Packet> &
MeshNoc::delivered(NodeId id)
{
    return deliverQueues[id];
}

bool
MeshNoc::idle() const
{
    // Maintained counters; formerly an O(routers x ports) scan
    // that ran once per drained cycle.
    return pendingInjectPackets == 0 && queuedFlits == 0;
}

double
MeshNoc::avgPacketLatency() const
{
    return deliveredCount ? latencySum / deliveredCount : 0.0;
}

inline void
MeshNoc::arbitrate(NodeId n)
{
    // Phase 1: each output port picks at most one eligible input,
    // based on start-of-cycle queue state, from the router's own
    // caches and without data-dependent branches until the grants.
    // `ready` holds every input whose front has cleared the router
    // pipeline (an empty input never has); bit numDirs * o + i of
    // `request` is set when ready input i's front is a head flit
    // routed (at push) to output o. Body flits request "output
    // numDirs", bits no output reads.
    Router &r = routers[n];
    constexpr unsigned kAll = (1u << numDirs) - 1;
    unsigned ready = 0;
    uint32_t request = 0;
    for (int i = 0; i < numDirs; ++i) {
        unsigned bit = r.frontReady[i] <= cycle;
        ready |= bit << i;
        request |= bit << (numDirs * r.frontReq[i] + i);
    }
    if (ready == 0)
        return;
    // An output has a candidate when it is locked to a packet (it
    // keeps that packet's input until the tail passes) and that
    // input is ready, or when it is unlocked and a head requests
    // it. An output with no credit downstream grants nothing
    // (ejection is always free).
    unsigned owner_ready = 0;
    unsigned requested = 0;
    for (int o = 0; o < numDirs; ++o) {
        owner_ready |= (ready >> r.lockedTo[o] & 1) << o;
        requested |= unsigned((request >> (numDirs * o) & kAll) != 0)
            << o;
    }
    unsigned outputs = (owner_ready & r.locked)
        | (requested & ~unsigned(r.locked));
    outputs &= ~unsigned(r.fullOut);
    // Ascending output order, as a sweep over every output would
    // append the moves.
    for (; outputs; outputs &= outputs - 1) {
        int o = std::countr_zero(outputs);
        // Round robin: the first requester at or after rrNext[o],
        // wrapping — the inputs rotated so rrNext[o] is bit 0, then
        // the lowest set bit. The pointer moves only on a fresh
        // grant, and every grant here commits: the credit check
        // already passed, so a winner never loses its turn. The
        // locked/unlocked choice is a mask select, not a branch.
        unsigned req = request >> (numDirs * o) & kAll;
        unsigned rr = r.rrNext[o];
        unsigned rotated = (req >> rr | req << (numDirs - rr)) & kAll;
        unsigned pick = rr + std::countr_zero(rotated);
        pick = pick >= numDirs ? pick - numDirs : pick;
        unsigned next_rr = pick + 1 == numDirs ? 0 : pick + 1;
        unsigned keep = 0u - (r.locked >> o & 1u); // all ones if locked
        unsigned candidate = (r.lockedTo[o] & keep) | (pick & ~keep);
        r.rrNext[o] = uint8_t((rr & keep) | (next_rr & ~keep));
        moves.push_back({n, int8_t(candidate), int8_t(o)});
    }
}

void
MeshNoc::injectOne(NodeId n)
{
    auto &q = injectQueues[n];
    if (routers[n].in[dirLocal].size >= cfg.queueDepth)
        return;
    Packet &pkt = q.front();
    unsigned &progress = injProgress[n];
    if (progress == 0) {
        // Allocate an in-flight table slot on the head flit.
        uint32_t idx;
        if (!freeSlots.empty()) {
            idx = freeSlots.back();
            freeSlots.pop_back();
            inFlight[idx] = pkt;
        } else {
            idx = static_cast<uint32_t>(inFlight.size());
            inFlight.push_back(pkt);
        }
        frontPacketIdx[n] = idx;
    }
    Flit flit;
    flit.head = (progress == 0);
    flit.tail = (progress == pkt.sizeFlits - 1);
    flit.dst = static_cast<uint16_t>(pkt.dst);
    flit.packetIdx = frontPacketIdx[n];
    flit.readyAt = cycle + 1 + cfg.routerLatency;
    if (trace::kEnabled && sink) {
        sink->flits.push_back({pkt.id, n, trace::kDirInject,
                               static_cast<int8_t>(dirLocal),
                               flit.head, flit.tail, cycle});
    }
    pushRouterFlit(n, dirLocal, flit);
    ++queuedFlits;
    lastTickProgress = true;
    ++progress;
    if (progress == pkt.sizeFlits) {
        progress = 0;
        q.pop_front();
        --pendingInjectPackets;
        if (q.empty())
            clearBit(activeInjectors, n);
    }
}

void
MeshNoc::tick()
{
    // Phase 1 walks only routers holding flits — a flit-less router
    // can produce no candidate — in ascending router id, so the
    // move list is the one a sweep over every router would build.
    moves.clear();
    forEachSetBit(activeRouters, [this](NodeId n) { arbitrate(n); });

    // Phase 2: commit the moves simultaneously.
    for (const Move &m : moves) {
        Router &r = routers[m.router];
        Flit flit = front(m.router, m.inDir);
        popRouterFlit(m.router, m.inDir);
        // A head locks the output to its input until its tail
        // passes (a single-flit packet does both).
        r.lockedTo[m.outDir] =
            flit.head ? uint8_t(m.inDir) : r.lockedTo[m.outDir];
        r.locked = uint8_t((r.locked | unsigned(flit.head) << m.outDir)
                           & ~(unsigned(flit.tail) << m.outDir));
        if (trace::kEnabled && sink) {
            sink->flits.push_back(
                {inFlight[flit.packetIdx].id, m.router,
                 static_cast<int8_t>(m.inDir),
                 static_cast<int8_t>(m.outDir), flit.head,
                 flit.tail, cycle});
        }
        if (m.outDir == dirLocal) {
            --queuedFlits;
            if (flit.tail) {
                Packet &pkt = inFlight[flit.packetIdx];
                latencySum +=
                    static_cast<double>(cycle - pkt.injectTime);
                ++deliveredCount;
                if (trace::kEnabled && sink)
                    sink->ejects.push_back(
                        {pkt.id, m.router, cycle});
                deliverQueues[m.router].push_back(pkt);
                freeSlots.push_back(flit.packetIdx);
            }
        } else {
            flit.readyAt = cycle + 1 + cfg.routerLatency;
            pushRouterFlit(
                neighbour[size_t(m.router) * numDirs + m.outDir],
                kArrivalDir[m.outDir], flit);
            ++flitHopCount;
        }
    }

    // Phase 3: injection, one flit per node per cycle. As in
    // phase 1, only nodes with a non-empty inject queue are walked,
    // in ascending node id — every skipped node would have nothing
    // to inject anyway.
    lastTickProgress = !moves.empty();
    forEachSetBit(activeInjectors, [this](NodeId n) { injectOne(n); });
    ++cycle;
}

void
MeshNoc::drain(Cycles max_cycles)
{
    ScopedHostTimer host_timer(*this);
    // Tick only productive cycles. After a tick in
    // which nothing moved and nothing injected, the mesh state is
    // static except for time — arbitration inputs (queues, locks,
    // round-robin pointers, credits) change only through moves and
    // injections — so every cycle before the next front-flit
    // pipeline-eligibility boundary is a provable no-op and the
    // clock jumps there directly. Zero progress with no future
    // eligibility is a genuine deadlock (all fronts already
    // eligible, none can move), which no amount of ticking fixes.
    Cycles start = cycle;
    while (!idle()) {
        if (cycle - start >= max_cycles)
            maicc_fatal("NoC failed to drain in %llu cycles",
                        (unsigned long long)max_cycles);
        tick();
        if (!lastTickProgress && !idle()) {
            Cycles next = nextFrontReadyAtOrAfter(cycle);
            if (next == kNeverReady)
                maicc_fatal("NoC deadlock: no flit moved and none "
                            "will become eligible");
            cycle = next;
        }
    }
}

} // namespace maicc
