/**
 * @file
 * The serving event loop (DESIGN.md §11, §14, §16): the one loop
 * behind ServingSimulator::run (a single chip is its 1-shard case)
 * and ClusterSimulator::run (N shards behind the dispatcher). It runs
 * on the shared EventQueue kernel; fault injection, queueing
 * timeouts and overload shedding (recoveryActive) are lanes of the
 * same loop that stay empty on a fault-free run, so a fault-free
 * run schedules exactly the arrival and completion events it
 * needs and nothing else.
 *
 * Event ordering at one cycle, by ascending priority lane:
 *
 *   kLaneFault (-3)    faults strike first — a batch finishing at
 *                      the very cycle its chip dies is killed, not
 *                      completed (the fault hits at the start of
 *                      the cycle);
 *   kLaneTimeout (-2)  queueing timeouts pull waiting requests out
 *                      before completions free cores — a request
 *                      that waited its full timeout is retried
 *                      even if capacity opens the same cycle;
 *   0..nChips-1        per-shard completion wakes, ascending shard
 *                      index (the cross-shard tie-break), so cores
 *                      free up before a simultaneous arrival is
 *                      considered;
 *   nChips             fresh arrivals;
 *   nChips+1           retry re-dispatches — behind the cycle's
 *                      fresh arrivals, so backoff never lets a
 *                      retried request jump a simultaneous fresh
 *                      one.
 *
 * Determinism: the loop is serial, every draw comes from seeded
 * state resolved before the first event, and the ordering key is a
 * pure function of the schedule() stream — a fixed (seed, config)
 * run is bitwise identical at any host thread count and sim-cache
 * setting.
 */

#ifndef MAICC_RUNTIME_RECOVERY_HH
#define MAICC_RUNTIME_RECOVERY_HH

#include <vector>

#include "runtime/shard.hh"

namespace maicc
{

class FaultInjector;

/**
 * Per-shard raw outputs of a serving run, for the caller's
 * aggregate and slice reports (the request records live in the
 * ServingResult the loop fills in place).
 */
struct ShardOutcome
{
    std::vector<UtilizationSample> timeline;
    Cycles minServiceLatency = 0; ///< 0 when nothing admitted
};

/**
 * Run the serving event loop over @p n_chips shards.
 *
 * Fills @p res from scratch: one request record per entry of
 * @p arrivals (in arrival order), offered and sloCycles, the
 * rejected/shed/timedOut flags and retry counts, the availability
 * and applied per-class fault counters, endCycle, and
 * res.recovery = recoveryActive(cfg) — everything
 * finalizeServingResult needs, which the caller runs afterwards
 * (the caller owns total-core normalization and stats publishing).
 *
 * @p shard_masks is per model (bit i = shard i may serve it);
 * @p injector may be null (no fault schedule).
 */
std::vector<ShardOutcome>
runServingLoop(const ServingConfig &cfg,
               const std::vector<ServedModel> &models,
               const std::vector<unsigned> &min_cores,
               const std::vector<ServingArrival> &arrivals,
               const std::vector<uint64_t> &shard_masks,
               unsigned n_chips, const ShardEngine::ProfileFn &profile,
               const FaultInjector *injector, ServingResult &res);

} // namespace maicc

#endif // MAICC_RUNTIME_RECOVERY_HH
