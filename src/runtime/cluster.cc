#include "runtime/cluster.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "runtime/recovery.hh"

namespace maicc
{

namespace
{

/**
 * Sum per-shard used-core step functions into one cluster-wide
 * timeline (one sample per distinct event cycle; within a shard
 * the last sample at a cycle wins).
 */
std::vector<UtilizationSample>
mergeShardTimelines(
    const std::vector<std::vector<UtilizationSample>> &per_shard)
{
    std::vector<size_t> idx(per_shard.size(), 0);
    std::vector<unsigned> cur(per_shard.size(), 0);
    std::vector<UtilizationSample> out;
    for (;;) {
        Cycles next = ShardEngine::kNever;
        for (size_t s = 0; s < per_shard.size(); ++s) {
            if (idx[s] < per_shard[s].size())
                next = std::min(next, per_shard[s][idx[s]].cycle);
        }
        if (next == ShardEngine::kNever)
            break;
        for (size_t s = 0; s < per_shard.size(); ++s) {
            while (idx[s] < per_shard[s].size()
                   && per_shard[s][idx[s]].cycle == next) {
                cur[s] = per_shard[s][idx[s]].usedCores;
                ++idx[s];
            }
        }
        unsigned total =
            std::accumulate(cur.begin(), cur.end(), 0u);
        out.push_back({next, total});
    }
    return out;
}

} // namespace

ClusterSimulator::ClusterSimulator(ServingConfig config)
    : SimComponent("cluster"), cfg(std::move(config)),
      nChips(std::max(1u, cfg.chips)), inner(cfg)
{
    maicc_assert(nChips <= 64); // shard masks are uint64_t
    chipStats.reserve(nChips);
    for (unsigned i = 0; i < nChips; ++i) {
        chipStats.push_back(std::make_unique<SimComponent>(
            "chip" + std::to_string(i)));
    }
}

size_t
ClusterSimulator::addModel(ServedModel m, uint64_t shard_mask)
{
    uint64_t all = nChips == 64 ? ~0ull : (1ull << nChips) - 1;
    uint64_t mask = shard_mask & all;
    maicc_assert(mask != 0); // must cover >= 1 configured shard
    size_t idx = inner.addModel(std::move(m));
    shardMasks.push_back(mask);
    return idx;
}

bool
ClusterSimulator::loadTrace(std::istream &in)
{
    return inner.loadTrace(in);
}

bool
ClusterSimulator::loadTraceFile(const std::string &path)
{
    return inner.loadTraceFile(path);
}

void
ClusterSimulator::setTimingCache(TimingResultCache *cache)
{
    inner.setTimingCache(cache);
}

void
ClusterSimulator::reset()
{
    inner.reset();
    for (auto &c : chipStats)
        c->reset();
    SimComponent::reset();
}

void
ClusterSimulator::attach(SimContext &ctx, const std::string &name,
                         const std::string &single_name)
{
    if (nChips == 1) {
        // The legacy layout: one component, the single-chip
        // simulator itself — byte-identical stats dumps to the
        // pre-cluster path by construction.
        inner.attachTo(ctx, single_name);
        return;
    }
    attachTo(ctx, name);
}

void
ClusterSimulator::onAttach()
{
    inner.attachTo(*context(), name() + ".profiler");
    for (auto &c : chipStats)
        c->attachTo(*this);
}

void
ClusterSimulator::publishStats(const ClusterResult &out)
{
    stats().resetAll();
    out.aggregate.dumpStats(stats());
    stats().counter("chips").inc(nChips);
    for (unsigned i = 0; i < nChips; ++i) {
        chipStats[i]->stats().resetAll();
        out.shards[i].dumpStats(chipStats[i]->stats());
    }
}

ClusterResult
ClusterSimulator::run()
{
    ScopedHostTimer host_timer(*this);
    ClusterResult out;
    if (nChips == 1) {
        // Delegate outright: the single-chip simulator is the
        // whole run, with its own stats layout.
        out.aggregate = inner.run();
        out.shards.push_back(out.aggregate);
        publishStats(out);
        return out;
    }

    // One independent chip per shard; all pull profiles from the
    // shared profiler (identical hardware, so a (model, cores)
    // profile is simulated at most once per run) and fault
    // schedules from the inner simulator's injector.
    ServingResult &agg = out.aggregate;
    auto shard_out = runServingLoop(
        cfg, inner.servedModels(), inner.minCoresTable(),
        inner.arrivals(), shardMasks, nChips,
        [this](size_t model, unsigned cores) -> const ServiceProfile & {
            return inner.profile(model, cores);
        },
        inner.faultInjector(), agg);

    // Aggregate floor: smallest profile any shard actually admitted
    // with (shards that admitted nothing report 0 and are skipped).
    agg.minServiceLatency = 0;
    std::vector<std::vector<UtilizationSample>> timelines;
    timelines.reserve(nChips);
    for (unsigned i = 0; i < nChips; ++i) {
        Cycles m = shard_out[i].minServiceLatency;
        if (m && (agg.minServiceLatency == 0
                  || m < agg.minServiceLatency))
            agg.minServiceLatency = m;
        timelines.push_back(std::move(shard_out[i].timeline));
    }
    agg.coreTimeline = mergeShardTimelines(timelines);
    finalizeServingResult(agg, cfg.sloCycles,
                          nChips * cfg.system.coreBudget);

    // Per-shard slices: the shard's own dispatched requests and
    // timeline, summarized with the same arithmetic against the
    // shared clock.
    for (unsigned i = 0; i < nChips; ++i) {
        ServingResult slice;
        slice.recovery = agg.recovery;
        slice.endCycle = agg.endCycle;
        slice.sloCycles = cfg.sloCycles;
        slice.minServiceLatency = shard_out[i].minServiceLatency;
        slice.coreTimeline = std::move(timelines[i]);
        // Rejections and sheds belong to the dispatcher, not a
        // shard; timed-out requests were dispatched somewhere and
        // report in that shard's slice.
        for (const RequestRecord &r : agg.requests) {
            if (!r.rejected && !r.shed && r.shard == i)
                slice.requests.push_back(r);
        }
        slice.offered = slice.requests.size();
        finalizeServingResult(slice, cfg.sloCycles,
                              cfg.system.coreBudget);
        out.shards.push_back(std::move(slice));
    }

    publishStats(out);
    return out;
}

} // namespace maicc
