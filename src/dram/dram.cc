#include "dram/dram.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "engine/event_queue.hh"
#include "mem/address_map.hh"

namespace maicc
{

DramChannel::DramChannel(const DramConfig &config)
    : SimComponent("dram_channel"), cfg(config), banks(config.numBanks)
{
    maicc_assert(cfg.numBanks >= 1);
}

unsigned
DramChannel::bankOf(Addr addr) const
{
    // Channel striping already consumed low block bits; interleave
    // banks on the next bits above the row offset.
    return (addr / cfg.rowBytes) % cfg.numBanks;
}

uint64_t
DramChannel::rowOf(Addr addr) const
{
    return addr / (cfg.rowBytes * cfg.numBanks);
}

void
DramChannel::enqueue(Addr addr, bool write, uint64_t tag, Cycles now)
{
    queue.push_back({addr, write, tag, now});
    tick(now);
}

Cycles
DramChannel::service(const Request &req, Cycles now)
{
    Bank &bank = banks[bankOf(req.addr)];
    uint64_t row = rowOf(req.addr);
    // Bank preparation (precharge/activate/CAS) overlaps with other
    // banks' bus transfers; only the data burst occupies the bus.
    Cycles start = std::max(now, bank.readyAt);

    Cycles data_ready;
    if (bank.open && bank.openRow == row) {
        ++st.rowHits;
        data_ready = start + cfg.tCAS;
    } else if (!bank.open) {
        ++st.activates;
        bank.activatedAt = start;
        data_ready = start + cfg.tRCD + cfg.tCAS;
    } else {
        // Conflict: precharge (respecting tRAS), activate, access.
        ++st.activates;
        Cycles pre_at =
            std::max(start, bank.activatedAt + cfg.tRAS);
        bank.activatedAt = pre_at + cfg.tRP;
        data_ready = pre_at + cfg.tRP + cfg.tRCD + cfg.tCAS;
    }
    Cycles access_done = std::max(data_ready, busFreeAt) + cfg.burst;
    bank.open = true;
    bank.openRow = row;
    bank.readyAt = access_done;
    busFreeAt = access_done;
    st.busyCycles += cfg.burst;
    if (req.write)
        ++st.writes;
    else
        ++st.reads;
    return access_done;
}

void
DramChannel::tick(Cycles now)
{
    lastTick = std::max(lastTick, now);
    // FR-FCFS: among queued requests, prefer the oldest row hit;
    // otherwise the oldest request. Issue as long as the data bus
    // can start work at or before `now`.
    while (!queue.empty() && busFreeAt <= lastTick) {
        size_t pick = 0;
        bool found_hit = false;
        // The scheduler considers a bounded reorder window, like a
        // real controller's transaction queue.
        size_t window = std::min<size_t>(queue.size(), 32);
        for (size_t i = 0; i < window; ++i) {
            const Bank &b = banks[bankOf(queue[i].addr)];
            if (b.open && b.openRow == rowOf(queue[i].addr)) {
                pick = i;
                found_hit = true;
                break;
            }
        }
        if (!found_hit)
            pick = 0;
        Request req = queue[pick];
        queue.erase(queue.begin() + pick);
        Cycles fin = service(req, req.arrival);
        done.push_back({req.tag, fin, req.write});
    }
}

std::vector<DramCompletion>
DramChannel::collect(Cycles now)
{
    tick(now);
    std::vector<DramCompletion> out;
    auto it = done.begin();
    while (it != done.end()) {
        if (it->finishedAt <= now) {
            out.push_back(*it);
            it = done.erase(it);
        } else {
            ++it;
        }
    }
    std::sort(out.begin(), out.end(),
              [](const DramCompletion &a, const DramCompletion &b) {
                  return a.finishedAt < b.finishedAt;
              });
    return out;
}

bool
DramChannel::idle() const
{
    return queue.empty() && done.empty();
}

Cycles
DramChannel::nextEventAt() const
{
    Cycles t = ~Cycles(0);
    for (const auto &c : done)
        t = std::min(t, c.finishedAt);
    if (!queue.empty())
        t = std::min(t, busFreeAt);
    return t;
}

void
DramChannel::reset()
{
    banks.assign(cfg.numBanks, Bank{});
    queue.clear();
    done.clear();
    busFreeAt = 0;
    lastTick = 0;
    st = DramStats{};
    SimComponent::reset();
}

void
DramChannel::recordStats()
{
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("reads", st.reads);
    publish("writes", st.writes);
    publish("activates", st.activates);
    publish("rowHits", st.rowHits);
    publish("busyCycles", st.busyCycles);
}

ManyCoreDram::ManyCoreDram(unsigned channels, const DramConfig &cfg)
    : SimComponent("dram")
{
    maicc_assert(channels >= 1);
    chans.reserve(channels);
    for (unsigned i = 0; i < channels; ++i)
        chans.push_back(std::make_unique<DramChannel>(cfg));
}

DramChannel &
ManyCoreDram::channel(unsigned idx)
{
    maicc_assert(idx < chans.size());
    return *chans[idx];
}

void
ManyCoreDram::enqueue(Addr addr, bool write, uint64_t tag, Cycles now)
{
    chans[amap::dramChannel(addr, chans.size())]->enqueue(addr, write,
                                                          tag, now);
}

void
ManyCoreDram::tick(Cycles now)
{
    // Only channels with queued or in-flight work can change
    // observable state; an idle channel's tick merely advances its
    // private clock, which re-synchronizes on the next enqueue
    // anyway.
    for (auto &c : chans) {
        if (!c->idle())
            c->tick(now);
    }
}

bool
ManyCoreDram::idle() const
{
    for (const auto &c : chans) {
        if (!c->idle())
            return false;
    }
    return true;
}

Cycles
ManyCoreDram::nextEventAt() const
{
    Cycles t = ~Cycles(0);
    for (const auto &c : chans)
        t = std::min(t, c->nextEventAt());
    return t;
}

Cycles
ManyCoreDram::drainVia(EventQueue &eq,
                       std::vector<DramCompletion> *out)
{
    ScopedHostTimer host_timer(*this);
    constexpr Cycles never = ~Cycles(0);
    Cycles last = 0;
    // Per-channel wake-up chain: each handler services exactly the
    // work that becomes actionable at its cycle, then re-arms at
    // the channel's next event. Priority = channel index keeps
    // same-cycle collections in ascending channel order — the same
    // order a per-cycle polling sweep would observe them in.
    std::function<void(unsigned, Cycles)> arm =
        [&](unsigned i, Cycles when) {
            eq.schedule(when, int(i), [&, i](Cycles now) {
                DramChannel &c = *chans[i];
                std::vector<DramCompletion> fin = c.collect(now);
                if (!fin.empty()) {
                    last = std::max(last, fin.back().finishedAt);
                    if (out) {
                        out->insert(out->end(), fin.begin(),
                                    fin.end());
                    }
                }
                Cycles next = c.nextEventAt();
                if (next != never)
                    arm(i, next);
            });
        };
    for (unsigned i = 0; i < chans.size(); ++i) {
        Cycles next = chans[i]->nextEventAt();
        if (next != never)
            arm(i, next);
    }
    eq.drain();
    return last;
}

DramStats
ManyCoreDram::totalStats() const
{
    DramStats t;
    for (const auto &c : chans) {
        t.reads += c->dramStats().reads;
        t.writes += c->dramStats().writes;
        t.activates += c->dramStats().activates;
        t.rowHits += c->dramStats().rowHits;
        t.busyCycles += c->dramStats().busyCycles;
    }
    return t;
}

void
ManyCoreDram::reset()
{
    for (auto &c : chans)
        c->reset();
    SimComponent::reset();
}

void
ManyCoreDram::recordStats()
{
    DramStats t = totalStats();
    auto publish = [this](const char *name, uint64_t v) {
        auto &c = stats().counter(name);
        c.reset();
        c.inc(v);
    };
    publish("reads", t.reads);
    publish("writes", t.writes);
    publish("activates", t.activates);
    publish("rowHits", t.rowHits);
    publish("busyCycles", t.busyCycles);
}

void
ManyCoreDram::onAttach()
{
    for (size_t i = 0; i < chans.size(); ++i) {
        chans[i]->attachTo(*context(),
                           name() + ".ch" + std::to_string(i));
    }
}

} // namespace maicc
