/**
 * @file
 * The benchmark's four workloads (see perfbench/README.md for why
 * each exists and which layers it exercises). A workload owns every
 * input it feeds the simulator, generated from the run's seed, and
 * calls only the simulator modules' public functions.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"

namespace perfbench
{

/** A named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

struct Options
{
    uint64_t seed = 1;
    /** MaiccSystem host threads; 0 = the workload's default. */
    unsigned threads = 0;
};

/** Simulated outcome of one op; the same on every op of a run. */
struct SimOutcome
{
    double cycles = 0;     ///< simulated cycles the op covers
    double requests = 0;   ///< simulated requests offered
    double requestsOk = 0; ///< of those, completed
    double p99Ms = 0;      ///< p99 simulated request latency

    bool
    operator==(const SimOutcome &o) const
    {
        return cycles == o.cycles && requests == o.requests
            && requestsOk == o.requestsOk && p99Ms == o.p99Ms;
    }
};

/**
 * Results that describe the modelled chip rather than one
 * workload's traffic: the error against the paper's reference
 * numbers and the single-chip serving capacity under the SLO.
 * Negative = not measured by this workload.
 */
struct ModelResults
{
    double latencyErr = -1;      ///< ResNet18 latency vs Table 7
    double efficiencyErr = -1;   ///< samples/s/W vs Table 7
    double nodeCyclesErr = -1;   ///< MAICC node cycles vs Table 4
    double maxRateUnderSlo = -1; ///< req/s, serve-sweep rates
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build every input and simulator object from the seed. */
    virtual void setup(SpanRecorder &rec) = 0;

    /** One timed operation. */
    virtual void op(SpanRecorder &rec) = 0;

    /**
     * Check the last op's outputs (untimed): against the
     * workload's reference, and for equality with the first op.
     * @return false with @p why set on a wrong output.
     */
    virtual bool checkOp(std::string &why) = 0;

    /** Once-per-run output check, after the ops (untimed). */
    virtual bool
    checkRun(SpanRecorder &, std::string &)
    {
        return true;
    }

    /** Simulated outcome of the last op. */
    virtual SimOutcome sim() const = 0;

    /** Per-layer simulated counts of the last op. */
    virtual void counters(Metrics &out) const = 0;

    /** Fill the ModelResults fields this workload measures. */
    virtual void modelResults(ModelResults &) const {}
};

/** @return the named workload, or nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &opt);

/**
 * Complete @p res by running, untimed and once each, the
 * workloads that measure the fields still missing.
 * @return false when a probe's output check failed.
 */
bool probeModelResults(const Options &opt, ModelResults &res);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
