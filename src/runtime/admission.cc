#include "runtime/admission.hh"

#include "common/logging.hh"

namespace maicc
{

namespace
{

/**
 * The three built-in policies share one shape: rank the candidates
 * by a total order, admit the head when it fits, and — when
 * work-conserving (sjf always, fifo/priority with backfill) — fall
 * back to the first *fitting* candidate in the same order.
 */
class BuiltinPolicy : public AdmissionPolicy
{
  public:
    BuiltinPolicy(SchedPolicy kind, bool backfill)
        : kind(kind), backfill(backfill)
    {
    }

    bool
    wantsCostEstimates() const override
    {
        return kind == SchedPolicy::Sjf;
    }

    uint64_t
    pick(const std::vector<QueueCandidate> &candidates,
         unsigned free_cores) const override
    {
        const QueueCandidate *head = nullptr;
        const QueueCandidate *fit = nullptr;
        for (const QueueCandidate &c : candidates) {
            if (!head || before(c, *head))
                head = &c;
            if (c.minCores <= free_cores && (!fit || before(c, *fit)))
                fit = &c;
        }
        // The head fits exactly when it is also the first fitting
        // candidate; otherwise only a work-conserving policy skips
        // it.
        if (!fit || (fit != head && !workConserving()))
            return npos;
        return kind == SchedPolicy::Fifo ? fit->firstId
                                         : fit->lowestId;
    }

  private:
    bool
    workConserving() const
    {
        return backfill || kind == SchedPolicy::Sjf;
    }

    /**
     * The policy order. fifo: global queue order (enqueue
     * sequence). sjf: estimated service time, then request id, so
     * equal-cost requests are still served in arrival order.
     * priority: class (0 is the most urgent), then request id.
     */
    bool
    before(const QueueCandidate &a, const QueueCandidate &b) const
    {
        switch (kind) {
          case SchedPolicy::Fifo:
            return a.firstSeq < b.firstSeq;
          case SchedPolicy::Sjf:
            if (a.costEstimate != b.costEstimate)
                return a.costEstimate < b.costEstimate;
            return a.lowestId < b.lowestId;
          case SchedPolicy::Priority:
            if (a.priorityClass != b.priorityClass)
                return a.priorityClass < b.priorityClass;
            return a.lowestId < b.lowestId;
        }
        return false;
    }

    SchedPolicy kind;
    bool backfill;
};

} // namespace

std::unique_ptr<AdmissionPolicy>
makePolicy(SchedPolicy kind, bool backfill)
{
    switch (kind) {
      case SchedPolicy::Fifo:
      case SchedPolicy::Sjf:
      case SchedPolicy::Priority:
        return std::make_unique<BuiltinPolicy>(kind, backfill);
    }
    maicc_fatal("unknown SchedPolicy");
}

} // namespace maicc
