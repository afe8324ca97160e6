#include "runtime/recovery.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "engine/event_queue.hh"
#include "fault/injector.hh"

namespace maicc
{

std::vector<ShardOutcome>
runServingLoop(const ServingConfig &cfg,
               const std::vector<ServedModel> &models,
               const std::vector<unsigned> &min_cores,
               const std::vector<ServingArrival> &arrivals,
               const std::vector<uint64_t> &shard_masks,
               unsigned n_chips, const ShardEngine::ProfileFn &profile,
               const FaultInjector *injector, ServingResult &res)
{
    constexpr Cycles kNever = ShardEngine::kNever;
    constexpr int kLaneFault = -3;
    constexpr int kLaneTimeout = -2;
    const int kLaneArrive = int(n_chips);
    const int kLaneRetry = int(n_chips) + 1;

    maicc_assert(n_chips >= 1);
    maicc_assert(shard_masks.size() == models.size());
    res.recovery = recoveryActive(cfg);
    res.offered = arrivals.size();
    res.sloCycles = cfg.sloCycles;
    res.requests.resize(arrivals.size());
    for (size_t i = 0; i < arrivals.size(); ++i) {
        RequestRecord &r = res.requests[i];
        r.id = i;
        r.model = arrivals[i].model;
        r.priorityClass = models[r.model].priorityClass;
        r.arrival = arrivals[i].cycle;
    }

    std::vector<std::unique_ptr<ShardEngine>> shards;
    shards.reserve(n_chips);
    for (unsigned i = 0; i < n_chips; ++i) {
        shards.push_back(std::make_unique<ShardEngine>(
            cfg, models, min_cores, res.requests, profile, i));
    }

    EventQueue eq;
    size_t next_arrival = 0;
    Cycles now = 0;

    // Requests parked between a timeout and their retry event —
    // in-flight work the cutoff predicate must see.
    size_t limbo = 0;

    // Timeout staleness guard: every enqueue of a request bumps
    // its epoch, and a timeout event captured with an older epoch
    // fires as a no-op (the §15 stale-event rule, applied to
    // requests instead of finish cycles).
    std::vector<unsigned> epoch(res.requests.size(), 0);

    // Dispatcher state. A shard is eligible for a model when the
    // model's mask covers it, it is alive with a surviving region
    // that can hold the model's minimum group, and its waiting
    // room has space. Model-affinity "warmth" is which shard
    // dispatched which model before — a pure function of the
    // seeded stream, never of TimingResultCache occupancy, so
    // dispatch is identical with the sim cache on or off.
    unsigned rr_next = 0;
    std::vector<std::vector<char>> served(
        n_chips, std::vector<char>(models.size(), 0));
    auto eligible = [&](unsigned s, size_t model) {
        return ((shard_masks[model] >> s) & 1)
            && shards[s]->canServe(min_cores[model])
            && !shards[s]->queueFull();
    };
    // Least-loaded rule: most free cores, then shortest waiting
    // queue, then lowest index — all deterministic tie-breaks.
    auto better = [&](unsigned a, unsigned b) {
        if (shards[a]->freeCores() != shards[b]->freeCores())
            return shards[a]->freeCores() > shards[b]->freeCores();
        return shards[a]->queueDepth() < shards[b]->queueDepth();
    };
    auto pick_shard = [&](size_t model) -> int {
        switch (cfg.shardPolicy) {
          case ShardPolicy::RoundRobin: {
            for (unsigned k = 0; k < n_chips; ++k) {
                unsigned s = (rr_next + k) % n_chips;
                if (eligible(s, model)) {
                    rr_next = (s + 1) % n_chips;
                    return int(s);
                }
            }
            return -1;
          }
          case ShardPolicy::LeastLoaded:
          case ShardPolicy::ModelAffinity: {
            int best = -1, warm_best = -1;
            for (unsigned s = 0; s < n_chips; ++s) {
                if (!eligible(s, model))
                    continue;
                if (best < 0 || better(s, unsigned(best)))
                    best = int(s);
                if (served[s][model]
                    && (warm_best < 0
                        || better(s, unsigned(warm_best))))
                    warm_best = int(s);
            }
            if (cfg.shardPolicy == ShardPolicy::ModelAffinity
                && warm_best >= 0)
                return warm_best;
            return best;
          }
        }
        return -1;
    };

    // Completion wake-up scheduling per shard (DESIGN.md §15): a
    // shard arms one wake at its earliest pending finish whenever
    // that moves earlier, and a fired wake retires every batch
    // finishing at its cycle, admitting after each retirement. A
    // wake that no longer matches — its batch already retired by
    // an earlier event, or killed by a fail-stop — fails the
    // nextFinish()==t re-check and is a no-op.
    std::vector<Cycles> armed(n_chips, kNever);
    std::function<void(unsigned, Cycles)> arm = [&](unsigned s,
                                                    Cycles) {
        Cycles nf = shards[s]->nextFinish();
        if (nf == kNever || nf >= armed[s])
            return;
        armed[s] = nf;
        eq.schedule(nf, int(s), [&, s](Cycles t) {
            if (armed[s] <= t)
                armed[s] = kNever;
            while (shards[s]->nextFinish() == t) {
                now = t;
                shards[s]->complete(t);
                shards[s]->tryAdmit(t);
            }
            arm(s, t);
        });
    };

    auto resetRecord = [](RequestRecord &r) {
        r.start = 0;
        r.finish = 0;
        r.cores = 0;
        r.batchSize = 1;
        r.completed = false;
    };
    auto backoff = [&](unsigned k) -> Cycles {
        if (cfg.backoffCycles == 0)
            return 0;
        return cfg.backoffCycles << std::min(k - 1, 20u);
    };

    // Mutually recursive handlers (redispatch arms timeouts whose
    // retries redispatch), so both are std::functions declared up
    // front.
    std::function<bool(uint64_t, Cycles)> redispatch;
    std::function<void(uint64_t, Cycles)> retryAt;

    auto scheduleTimeout = [&](uint64_t id, Cycles t) {
        if (cfg.timeoutCycles == 0)
            return;
        unsigned e = ++epoch[id];
        eq.schedule(
            t + cfg.timeoutCycles, kLaneTimeout,
            [&, id, e](Cycles tt) {
                if (epoch[id] != e)
                    return; // re-enqueued since — stale
                RequestRecord &r = res.requests[id];
                if (!shards[r.shard]->removeQueued(id))
                    return; // admitted meanwhile — never interrupt
                now = tt;
                resetRecord(r);
                ++r.retries;
                if (r.retries > cfg.maxRetries) {
                    r.timedOut = true;
                    return;
                }
                ++limbo;
                eq.schedule(tt + backoff(r.retries), kLaneRetry,
                            [&, id](Cycles t3) { retryAt(id, t3); });
            });
    };

    redispatch = [&](uint64_t id, Cycles t) -> bool {
        size_t model = res.requests[id].model;
        int target = pick_shard(model);
        if (target < 0)
            return false;
        served[target][model] = 1;
        bool ok = shards[target]->enqueue(id);
        maicc_assert(ok);
        scheduleTimeout(id, t);
        shards[target]->tryAdmit(t);
        arm(unsigned(target), t);
        return true;
    };

    retryAt = [&](uint64_t id, Cycles t) {
        --limbo;
        now = t;
        if (redispatch(id, t))
            return;
        // Nowhere to go right now: that consumes an attempt too,
        // so a request the cluster can never place again converges
        // to timed-out instead of retrying forever.
        RequestRecord &r = res.requests[id];
        ++r.retries;
        if (r.retries > cfg.maxRetries) {
            r.timedOut = true;
            return;
        }
        ++limbo;
        eq.schedule(t + backoff(r.retries), kLaneRetry,
                    [&, id](Cycles t3) { retryAt(id, t3); });
    };

    // Displaced requests (failover off a faulted shard) do not
    // consume retry budget — the request did nothing wrong.
    auto failover = [&](const std::vector<uint64_t> &displaced,
                        Cycles t) {
        if (!displaced.empty())
            now = t;
        for (uint64_t id : displaced) {
            RequestRecord &r = res.requests[id];
            resetRecord(r);
            ++epoch[id]; // cancel any pending queueing timeout
            if (redispatch(id, t)) {
                ++res.failovers;
            } else {
                r.rejected = true;
                ++res.rejected;
            }
        }
    };

    auto applyFault = [&](const FaultEvent &e, Cycles t) {
        ShardEngine &sh = *shards[e.chip];
        if (sh.dead())
            return; // nothing left to break — not counted
        switch (e.kind) {
          case FaultKind::ChipFailStop:
            ++res.faultChipFailStop;
            failover(sh.failStop(t), t);
            break;
          case FaultKind::CoreLoss:
            ++res.faultCoreLoss;
            failover(sh.loseCores(e.count, t), t);
            break;
          case FaultKind::DramOutage: {
            ++res.faultDramOutage;
            unsigned ch = cfg.system.dramChannels;
            maicc_assert(e.count < ch);
            double f = double(ch) / double(ch - e.count);
            sh.pushSlowdown(t, e.until ? e.until : kNever, f);
            break;
          }
          case FaultKind::NocDegrade:
            ++res.faultNocDegrade;
            sh.pushSlowdown(t, e.until ? e.until : kNever,
                            e.factor);
            break;
        }
    };

    std::function<void(Cycles)> arrive = [&](Cycles t) {
        uint64_t id = next_arrival++;
        now = t;
        if (next_arrival < arrivals.size()) {
            eq.schedule(arrivals[next_arrival].cycle, kLaneArrive,
                        arrive);
        }
        RequestRecord &r = res.requests[id];
        // Overload shedding gates *fresh* arrivals only: work the
        // cluster already accepted (retries, failovers) is never
        // shed.
        if (cfg.shedQueueDepth != 0) {
            size_t depth = 0;
            for (const auto &s : shards)
                depth += s->queueDepth();
            if (depth >= cfg.shedQueueDepth) {
                r.shed = true;
                return;
            }
        }
        if (!redispatch(id, t)) {
            r.rejected = true;
            ++res.rejected;
        }
    };

    if (injector) {
        for (const FaultEvent &e : injector->schedule()) {
            eq.schedule(e.cycle, kLaneFault,
                        [&, e](Cycles t) { applyFault(e, t); });
        }
    }
    if (!arrivals.empty())
        eq.schedule(arrivals[0].cycle, kLaneArrive, arrive);

    while (!eq.empty()) {
        if (cfg.cutoff && eq.nextAt() > cfg.cutoff)
            break;
        eq.step();
    }

    // Truncated iff request work remained past the cutoff: future
    // arrivals, running batches, queued requests, or retries
    // parked in limbo. Leftover fault events alone are not work.
    bool work_left = next_arrival < arrivals.size() || limbo > 0;
    for (const auto &s : shards)
        work_left = work_left || !s->idle() || s->queueDepth() > 0;
    bool truncated = cfg.cutoff != 0 && work_left;
    res.endCycle = truncated ? cfg.cutoff : now;

    std::vector<ShardOutcome> out(n_chips);
    for (unsigned i = 0; i < n_chips; ++i) {
        out[i].timeline = shards[i]->takeTimeline();
        out[i].minServiceLatency =
            shards[i]->minServiceLatencySeen();
    }
    return out;
}

} // namespace maicc
