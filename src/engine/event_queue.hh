/**
 * @file
 * The shared discrete-event kernel (DESIGN.md §15). One EventQueue
 * drives one simulation clock: components schedule wake-up events
 * at absolute cycles and the pump executes them in deterministic
 * (cycle, priority, sequence) order — cycle first, then the
 * caller-chosen priority lane (e.g. "completions before arrivals",
 * "shard 0 before shard 1"), then insertion order as the final
 * tie-break. Execution is strictly single-threaded and the
 * ordering key is a pure function of the schedule() call stream,
 * so a run is bitwise reproducible regardless of host load,
 * pointer values, or hash seeds.
 *
 * Skip-ahead falls out of the representation: between events no
 * simulated time is modeled at all, so an idle stretch costs
 * nothing (a per-cycle loop would advance every router/channel
 * every cycle). Components that cannot know their next interesting
 * cycle exactly may schedule a conservative earlier wake-up and
 * re-check state when it fires; stale wake-ups must be no-ops (the
 * "stale events are harmless" rule in §15).
 */

#ifndef MAICC_ENGINE_EVENT_QUEUE_HH
#define MAICC_ENGINE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hh"

namespace maicc
{

/**
 * Deterministic discrete-event queue. See the file comment for the
 * ordering contract. Not thread-safe: one queue belongs to one
 * simulation loop on one thread.
 */
class EventQueue
{
  public:
    /** Callback invoked with the event's cycle. */
    using Handler = std::function<void(Cycles)>;

    /** "No event" sentinel returned by nextAt(). */
    static constexpr Cycles kNever = ~Cycles(0);

    /**
     * Schedule @p fn at absolute cycle @p when. Events at one
     * cycle run in ascending @p priority, then schedule() order.
     * Scheduling at or before the cycle currently being executed
     * is allowed (the event runs before the pump returns to an
     * older cycle only if none exists — i.e. it is simply ordered
     * by its key like any other event); scheduling strictly in the
     * past of an already-executed event is a contract violation
     * the caller must avoid.
     */
    void
    schedule(Cycles when, int priority, Handler fn)
    {
        heap.push(Event{when, priority, nextSeq++, std::move(fn)});
    }

    bool empty() const { return heap.empty(); }
    size_t size() const { return heap.size(); }

    /** Cycle of the next event, or kNever when empty. */
    Cycles
    nextAt() const
    {
        return heap.empty() ? kNever : heap.top().when;
    }

    /** Cycle of the most recently executed event (0 initially). */
    Cycles now() const { return current; }

    /** Events executed so far (for budget checks / stats). */
    uint64_t eventsRun() const { return executed; }

    /**
     * Pop and run the single next event. No-op on an empty queue.
     * @return true when an event ran.
     */
    bool step();

    /**
     * Run events while the next one is at or before @p limit.
     * @return events executed.
     */
    uint64_t runUntil(Cycles limit);

    /** Run until the queue is empty. @return events executed. */
    uint64_t drain();

    /** Drop all pending events; now()/eventsRun() keep counting. */
    void
    clear()
    {
        heap = Heap{};
    }

  private:
    struct Event
    {
        Cycles when;
        int priority;
        uint64_t seq;
        Handler fn;
    };

    /** Min-first over (when, priority, seq). */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    using Heap =
        std::priority_queue<Event, std::vector<Event>, Later>;

    Heap heap;
    uint64_t nextSeq = 0;
    uint64_t executed = 0;
    Cycles current = 0;
};

} // namespace maicc

#endif // MAICC_ENGINE_EVENT_QUEUE_HH
