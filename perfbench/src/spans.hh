/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a simulator module, timed from outside it
 * with std::chrono::steady_clock: its name (`<module>.<what>`),
 * start, end, the span that encloses it and the op it belongs to.
 * Spans are appended to a vector while the run goes on and written
 * out once, when the run ends; nothing is printed while timing.
 * When recording is off a Span costs one branch.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Op ids of spans that belong to no timed op. */
constexpr int64_t kSetupOp = -1;
constexpr int64_t kCheckOp = -2;

struct SpanRecord
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1; ///< index of the enclosing span, -1 = none
    int64_t op = kSetupOp;
};

class SpanRecorder
{
  public:
    SpanRecorder() : epoch(std::chrono::steady_clock::now()) {}

    /** Record spans only while on (the traced ops). */
    void setEnabled(bool on) { enabled = on; }

    /** Op id stamped on the spans opened from now on. */
    void setOp(int64_t op) { currentOp = op; }

    /** Nanoseconds since the recorder was built. */
    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }

    /** Open a span; @return its index, or -1 when not recording. */
    int64_t
    open(std::string name)
    {
        if (!enabled)
            return -1;
        SpanRecord s;
        s.name = std::move(name);
        s.parent = stack.empty() ? -1 : stack.back();
        s.op = currentOp;
        s.startNs = nowNs();
        spans.push_back(std::move(s));
        stack.push_back(int64_t(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int64_t idx)
    {
        if (idx < 0)
            return;
        spans[size_t(idx)].endNs = nowNs();
        stack.pop_back();
    }

    /** Rename an open or closed span (e.g. a profile hit vs miss). */
    void
    rename(int64_t idx, std::string name)
    {
        if (idx >= 0)
            spans[size_t(idx)].name = std::move(name);
    }

    const std::vector<SpanRecord> &records() const { return spans; }

  private:
    std::chrono::steady_clock::time_point epoch;
    bool enabled = false;
    int64_t currentOp = kSetupOp;
    std::vector<SpanRecord> spans;
    std::vector<int64_t> stack;
};

/** RAII span: open on construction, close on destruction. */
class Span
{
  public:
    Span(SpanRecorder &rec, std::string name)
        : recorder(rec), idx(rec.open(std::move(name)))
    {
    }
    ~Span() { recorder.close(idx); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    rename(std::string name)
    {
        recorder.rename(idx, std::move(name));
    }

  private:
    SpanRecorder &recorder;
    int64_t idx;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
