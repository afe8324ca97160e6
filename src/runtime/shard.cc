#include "runtime/shard.hh"

#include <algorithm>

#include "common/logging.hh"

namespace maicc
{

ShardEngine::ShardEngine(const ServingConfig &config,
                         const std::vector<ServedModel> &models_,
                         const std::vector<unsigned> &min_cores,
                         std::vector<RequestRecord> &requests_,
                         ProfileFn profile, unsigned shard_index)
    : cfg(config), models(models_), minCores(min_cores),
      requests(requests_), profileFn(std::move(profile)),
      shardIndex(shard_index), ledger(cfg.system.coreBudget),
      region(cfg.system.geometry), queues(models_.size()),
      policy(makePolicy(cfg.policy, cfg.backfill))
{
    timeline.push_back({0, 0});
}

// Test/debug invariants, asserted at every event when
// cfg.selfCheck is set: the core budget holds, the ledger (budget)
// and region (physical slots) stay in lock-step with the sum of the
// running regions, and the per-model queue index is consistent —
// both orders strictly increasing, every entry a request of that
// model dispatched here, and the sizes summing to queueDepth().
void
ShardEngine::checkInvariants() const
{
    if (!cfg.selfCheck)
        return;
    maicc_assert(ledger.used() <= ledger.total());
    maicc_assert(ledger.used() == coresInFlight);
    maicc_assert(region.totalNodes() - region.freeNodes()
                     - region.deadNodes()
                 == coresInFlight);
    size_t total = 0;
    for (size_t m = 0; m < queues.size(); ++m) {
        const ModelQueue &q = queues[m];
        maicc_assert(q.byId.size() == q.bySeq.size());
        for (size_t i = 0; i < q.bySeq.size(); ++i) {
            const RequestRecord &r = requests[q.bySeq[i].id];
            maicc_assert(r.model == m && r.shard == shardIndex);
            maicc_assert(i == 0 || q.bySeq[i - 1].seq < q.bySeq[i].seq);
            maicc_assert(i == 0 || q.byId[i - 1].id < q.byId[i].id);
        }
        total += q.bySeq.size();
    }
    maicc_assert(total == queued);
}

std::deque<ShardEngine::Queued>::iterator
ShardEngine::ModelQueue::findSeq(uint64_t seq)
{
    auto it = std::lower_bound(
        bySeq.begin(), bySeq.end(), seq,
        [](const Queued &e, uint64_t v) { return e.seq < v; });
    maicc_assert(it != bySeq.end() && it->seq == seq);
    return it;
}

std::deque<ShardEngine::Queued>::iterator
ShardEngine::ModelQueue::findId(uint64_t id)
{
    auto it = std::lower_bound(
        byId.begin(), byId.end(), id,
        [](const Queued &e, uint64_t v) { return e.id < v; });
    return it != byId.end() && it->id == id ? it : byId.end();
}

void
ShardEngine::push(uint64_t id)
{
    ModelQueue &q = queues[requests[id].model];
    Queued e{nextSeq++, id};
    q.bySeq.push_back(e);
    // A fresh arrival carries the largest id so far and appends; a
    // retried or failed-over request slots in by id.
    q.byId.insert(std::upper_bound(q.byId.begin(), q.byId.end(), id,
                                   [](uint64_t v, const Queued &x) {
                                       return v < x.id;
                                   }),
                  e);
    ++queued;
}

void
ShardEngine::drainModel(size_t model, std::vector<uint64_t> &out)
{
    ModelQueue &q = queues[model];
    for (const Queued &e : q.bySeq)
        out.push_back(e.id);
    queued -= q.bySeq.size();
    q.bySeq.clear();
    q.byId.clear();
}

bool
ShardEngine::enqueue(uint64_t id)
{
    if (queued >= cfg.queueCapacity)
        return false;
    requests[id].shard = shardIndex;
    push(id);
    return true;
}

void
ShardEngine::complete(Cycles now)
{
    // Completion bookkeeping: the batch's cores and serpentine
    // slots coalesce back before the caller considers the next
    // event (completion-first-on-ties is the caller's contract).
    maicc_assert(!running.empty());
    Running done = running.top();
    running.pop();
    ledger.release(done.cores);
    region.release(done.slots);
    maicc_assert(coresInFlight >= done.cores);
    coresInFlight -= done.cores;
    timeline.push_back({now, ledger.used()});
}

void
ShardEngine::tryAdmit(Cycles now)
{
    while (queued > 0) {
        // One candidate per model with queued work, into the reused
        // buffer. Cost estimates (SJF) reuse the memoized
        // per-(model, minCores) service profiles, so only the first
        // sight of a model pays for a probe simulation.
        candidates.clear();
        for (size_t m = 0; m < queues.size(); ++m) {
            const ModelQueue &q = queues[m];
            if (q.bySeq.empty())
                continue;
            QueueCandidate c;
            c.priorityClass = models[m].priorityClass;
            c.minCores = minCores[m];
            if (policy->wantsCostEstimates())
                c.costEstimate = profileFn(m, c.minCores).latency;
            c.firstSeq = q.bySeq.front().seq;
            c.firstId = q.bySeq.front().id;
            c.lowestId = q.byId.front().id;
            candidates.push_back(c);
        }
        uint64_t id = policy->pick(candidates, ledger.freeCores());
        if (id == AdmissionPolicy::npos)
            break; // nothing admissible at this event

        size_t model = requests[id].model;
        unsigned min_cores = minCores[model];
        maicc_assert(min_cores <= ledger.freeCores());
        unsigned want = models[model].preferredCores;
        // Graceful degradation: once core-loss faults have shrunk
        // the region, wide preferred grants fragment what is left
        // and starve admission — fall back to minimum-region
        // grants so every survivor keeps serving.
        if (region.deadNodes() > 0)
            want = min_cores;
        unsigned grant =
            std::clamp(want == 0 ? min_cores : want, min_cores,
                       ledger.freeCores());

        // Carve a contiguous serpentine region — the shape the
        // (model, cores) service profile was simulated on. Under
        // fragmentation the budget can have cores free with no run
        // long enough: degrade gracefully instead of aborting —
        // retry at the minimum region, else leave the request
        // queued until a completion re-coalesces the region (the
        // region is empty whenever nothing runs, so admission
        // cannot stall forever).
        Running r;
        r.slots = region.allocateContiguous(grant);
        if (r.slots.empty() && grant > min_cores) {
            grant = min_cores;
            r.slots = region.allocateContiguous(grant);
        }
        if (r.slots.empty())
            break;

        bool ok = ledger.tryAllocate(grant);
        maicc_assert(ok);
        coresInFlight += grant;

        // Collect the admitted request plus same-model companions
        // into one batch. Default: only the contiguous same-model
        // run starting at the admitted request — this model's
        // entries enqueued before any other model's next entry —
        // so batching never pulls a request past a different-model
        // one (the no-reordering contract). cfg.batchAcrossQueue
        // takes every later entry of the model instead.
        ModelQueue &q = queues[model];
        auto by_id = q.findId(id);
        maicc_assert(by_id != q.byId.end());
        auto first = q.findSeq(by_id->seq);
        uint64_t stop = std::numeric_limits<uint64_t>::max();
        if (!cfg.batchAcrossQueue) {
            for (size_t m = 0; m < queues.size(); ++m) {
                const std::deque<Queued> &other = queues[m].bySeq;
                if (m == model)
                    continue;
                auto next = std::upper_bound(
                    other.begin(), other.end(), first->seq,
                    [](uint64_t v, const Queued &e) {
                        return v < e.seq;
                    });
                if (next != other.end())
                    stop = std::min(stop, next->seq);
            }
        }
        unsigned max_batch = std::max(1u, cfg.maxBatch);
        auto last = first;
        while (last != q.bySeq.end() && last->seq < stop
               && r.members.size() < max_batch) {
            r.members.push_back(last->id);
            ++last;
        }
        for (uint64_t member : r.members)
            q.byId.erase(q.findId(member));
        q.bySeq.erase(first, last);
        queued -= r.members.size();

        r.cores = grant;
        r.firstId = r.members.front();

        const ServiceProfile &sp = profileFn(model, grant);
        Cycles lat = sp.latency;
        Cycles interval = sp.interval;
        // Transient DRAM-outage / NoC-degradation windows scale
        // the service profile at admission time. Applied only when
        // the product differs from 1.0 so the fault-free path runs
        // the exact pre-fault integer arithmetic.
        double slow = slowdownAt(now);
        if (slow != 1.0) {
            lat = static_cast<Cycles>(
                static_cast<double>(lat) * slow);
            interval = static_cast<Cycles>(
                static_cast<double>(interval) * slow);
        }
        minService = std::min(minService, lat);
        for (size_t k = 0; k < r.members.size(); ++k) {
            RequestRecord &req = requests[r.members[k]];
            req.start = now;
            req.cores = grant;
            req.batchSize = unsigned(r.members.size());
            req.finish = now + lat + Cycles(k) * interval;
            r.finish = req.finish;
        }
        running.push(std::move(r));
        timeline.push_back({now, ledger.used()});
    }
    checkInvariants();
}

std::vector<uint64_t>
ShardEngine::failStop(Cycles now)
{
    // The serving loop retires completions strictly before the
    // fault cycle first, so every batch still running here is
    // genuinely in flight — its members are killed mid-service and
    // must be re-dispatched elsewhere.
    std::vector<uint64_t> displaced;
    while (!running.empty()) {
        const Running &r = running.top();
        displaced.insert(displaced.end(), r.members.begin(),
                         r.members.end());
        ledger.release(r.cores);
        region.release(r.slots);
        maicc_assert(coresInFlight >= r.cores);
        coresInFlight -= r.cores;
        running.pop();
    }
    for (size_t m = 0; m < queues.size(); ++m)
        drainModel(m, displaced);

    for (unsigned s = 0; s < region.totalNodes(); ++s) {
        if (!region.dead(s))
            region.markDead(s);
    }
    ledger.retire(ledger.freeCores());
    isDead = true;
    slowdowns.clear();
    timeline.push_back({now, 0});
    std::sort(displaced.begin(), displaced.end());
    checkInvariants();
    return displaced;
}

std::vector<uint64_t>
ShardEngine::loseCores(unsigned count, Cycles now)
{
    // Victims: the highest-index live serpentine slots, clamped to
    // what is left. Highest-index keeps the low end — where
    // first-fit carves — coalescible for as long as possible.
    std::vector<unsigned> victims;
    for (unsigned s = region.totalNodes();
         s-- > 0 && victims.size() < count;) {
        if (!region.dead(s))
            victims.push_back(s);
    }
    if (victims.size() == region.totalNodes() - region.deadNodes())
        return failStop(now);

    auto isVictim = [&](unsigned s) {
        return std::find(victims.begin(), victims.end(), s)
            != victims.end();
    };

    // Kill every batch occupying a victim slot; survivors keep
    // running untouched.
    std::vector<uint64_t> displaced;
    std::vector<Running> keep;
    while (!running.empty()) {
        const Running &r = running.top();
        bool hit = std::any_of(r.slots.begin(), r.slots.end(),
                               isVictim);
        if (hit) {
            displaced.insert(displaced.end(), r.members.begin(),
                             r.members.end());
            ledger.release(r.cores);
            region.release(r.slots);
            maicc_assert(coresInFlight >= r.cores);
            coresInFlight -= r.cores;
        } else {
            keep.push_back(running.top());
        }
        running.pop();
    }
    for (Running &r : keep)
        running.push(std::move(r));

    for (unsigned s : victims)
        region.markDead(s);
    ledger.retire(std::min(unsigned(victims.size()),
                           ledger.freeCores()));

    // Queued requests whose minimum region no longer fits any
    // possible run on this shard would wait forever — displace
    // them for the dispatcher to fail over (a per-model test).
    for (size_t m = 0; m < queues.size(); ++m) {
        if (!canServe(minCores[m]))
            drainModel(m, displaced);
    }

    timeline.push_back({now, ledger.used()});
    std::sort(displaced.begin(), displaced.end());
    checkInvariants();
    return displaced;
}

void
ShardEngine::pushSlowdown(Cycles from, Cycles until, double factor)
{
    slowdowns.push_back({from, until, factor});
}

double
ShardEngine::slowdownAt(Cycles now) const
{
    double f = 1.0;
    for (const Slowdown &w : slowdowns) {
        if (now >= w.from && now < w.until)
            f *= w.factor;
    }
    return f;
}

bool
ShardEngine::removeQueued(uint64_t id)
{
    ModelQueue &q = queues[requests[id].model];
    auto it = q.findId(id);
    if (it == q.byId.end())
        return false;
    q.bySeq.erase(q.findSeq(it->seq));
    q.byId.erase(it);
    --queued;
    return true;
}

} // namespace maicc
