/**
 * @file
 * Pluggable admission/scheduling policies for the request-driven
 * serving loop (serving.hh).
 *
 * The paper's multi-DNN claim is about *parallel* serving; real
 * inference stacks are judged by how their scheduler trades
 * latency, fairness, and SLO attainment under load. The serving
 * simulator therefore exposes the admission decision — "given the
 * waiting queue and the free-core budget, which request (if any)
 * starts next?" — as an AdmissionPolicy object. The event loop owns
 * everything else (region carving, batching, completion), so every
 * policy inherits the serving determinism contract for free: a
 * policy is a pure function of the candidates it is handed, and
 * they are built from thread-count-invariant quantities.
 *
 * Everything a policy ranks by — the minimum node group, the SJF
 * cost estimate, the priority class — depends on the model alone,
 * so the waiting queue reaches a policy as one QueueCandidate per
 * model with queued work (ShardEngine keeps a FIFO queue per
 * model). A candidate names the model's earliest-enqueued request
 * (its place in global queue order) and its lowest request id (the
 * arrival-order tie-break). The two differ once retries and
 * failovers re-enqueue old ids behind younger ones. An admission
 * decision therefore costs O(models), not O(queue depth).
 *
 * Built-in policies (SchedPolicy, `--policy=fifo|sjf|priority`):
 *
 *  - **fifo**: strict queue order with head-of-line blocking —
 *    the earliest-enqueued request is admitted as soon as its
 *    minimum node group fits; later requests never jump it.
 *  - **sjf**: shortest-job-first over the *fitting* models, using
 *    the memoized per-(model, cores) service profiles
 *    (ServingSimulator::profile, optionally backed by the
 *    TimingResultCache, DESIGN.md §13) as cost estimates; ties
 *    break toward the lowest request id, and the chosen model's
 *    lowest-id request is admitted. Inherently work-conserving.
 *  - **priority**: lowest ServedModel::priorityClass first (class 0
 *    is the most urgent), lowest request id within a class, with
 *    head-of-line blocking on that order.
 *
 * The `backfill` knob makes fifo and priority work-conserving: when
 * the blocked head does not fit, the first *fitting* request in the
 * policy's order is admitted instead ("EASY"-style backfill without
 * reservations — the head can be delayed by backfilled work).
 */

#ifndef MAICC_RUNTIME_ADMISSION_HH
#define MAICC_RUNTIME_ADMISSION_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/enum_names.hh"
#include "common/types.hh"

namespace maicc
{

/** Which admission/scheduling policy the serving loop runs. */
enum class SchedPolicy
{
    Fifo,     ///< strict arrival order, head-of-line blocking
    Sjf,      ///< shortest estimated service time first
    Priority, ///< lowest priority class first, FIFO within a class
};

/** Flag and config spellings (`--policy=`, common/enum_names.hh). */
constexpr auto
spellings(SchedPolicy)
{
    return std::to_array<Spelling<SchedPolicy>>({
        {SchedPolicy::Fifo, "fifo"},
        {SchedPolicy::Sjf, "sjf"},
        {SchedPolicy::Priority, "priority"},
    });
}

/**
 * Which shard-selection policy the cross-chip dispatcher runs
 * (cluster.hh, `--shard-policy=`). Dispatch happens once, at
 * arrival time: the dispatcher picks among the shards that have the
 * request's model registered and waiting-room space, and the
 * request then lives on that shard until it completes. Like
 * AdmissionPolicy::pick, every selection rule is a pure function of
 * deterministic dispatcher state, so sharded runs keep the bitwise
 * determinism contract.
 */
enum class ShardPolicy
{
    RoundRobin,    ///< cyclic scan over eligible shards
    LeastLoaded,   ///< most free cores, then shortest queue
    ModelAffinity, ///< prefer shards that served the model before
};

/** Flag and config spellings (`--shard-policy=`). */
constexpr auto
spellings(ShardPolicy)
{
    return std::to_array<Spelling<ShardPolicy>>({
        {ShardPolicy::RoundRobin, "round-robin"},
        {ShardPolicy::LeastLoaded, "least-loaded"},
        {ShardPolicy::ModelAffinity, "model-affinity"},
    });
}

/**
 * What a policy may look at about one model's queued work. The
 * ranking fields depend only on the model; the last three locate
 * the two requests a policy may admit.
 */
struct QueueCandidate
{
    unsigned priorityClass = 0; ///< ServedModel::priorityClass
    unsigned minCores = 0;      ///< densest node group that serves it

    /**
     * Estimated isolated service latency at minCores — the SJF cost
     * metric. Filled only when the policy asks for it
     * (wantsCostEstimates); the densest-region estimate is used so
     * the ordering is stable and independent of the instantaneous
     * free-core count.
     */
    Cycles costEstimate = 0;

    /** Enqueue sequence number of the model's earliest-enqueued
     * request; it orders the request in the shard's global queue. */
    uint64_t firstSeq = 0;
    uint64_t firstId = 0;  ///< that earliest-enqueued request's id
    uint64_t lowestId = 0; ///< the model's lowest queued request id
};

/**
 * The admission decision, pluggable. pick() must be a pure function
 * of its arguments (no hidden state, no randomness) — that is what
 * keeps fixed-seed serving runs bitwise identical at any host
 * thread count and lets run() be called repeatedly.
 */
class AdmissionPolicy
{
  public:
    /** pick()'s "admit nothing at this event" result. */
    static constexpr uint64_t npos =
        std::numeric_limits<uint64_t>::max();

    virtual ~AdmissionPolicy() = default;

    /** True when QueueCandidate::costEstimate must be filled. */
    virtual bool wantsCostEstimates() const { return false; }

    /**
     * Id of the request to admit next — a candidate's firstId or
     * lowestId — or npos when the policy admits nothing at this
     * event. @p candidates holds one entry per model with queued
     * work, in any order. The admitted request must fit:
     * its candidate's minCores <= freeCores (the caller asserts).
     * Strict (non-work-conserving) policies return npos when their
     * first choice does not fit, even if another model would.
     */
    virtual uint64_t pick(const std::vector<QueueCandidate> &candidates,
                          unsigned freeCores) const = 0;
};

/**
 * Build the policy object for @p kind. @p backfill makes fifo and
 * priority work-conserving (sjf already is; the knob is accepted
 * and ignored there).
 */
std::unique_ptr<AdmissionPolicy> makePolicy(SchedPolicy kind,
                                            bool backfill);

} // namespace maicc

#endif // MAICC_RUNTIME_ADMISSION_HH
