/**
 * @file
 * maicc_perfbench: runs one benchmark workload and prints its raw
 * measurements as one JSON document on stdout. perfbench/run.py
 * builds this binary, runs it and turns the raw document into the
 * benchmark's metrics.
 *
 *   maicc_perfbench --workload NAME --seed N --seconds S
 *                   [--trace 0|1] [--threads T]
 *
 * A run sets the workload up kSetups times (the median is its set-up
 * time), runs one untimed warm-up op, then runs ops back to back,
 * one at a time, for S seconds (and at least kMinOps). Every op's
 * output is checked untimed, between ops. With --trace 1 every
 * second op is traced, so one run gives both the per-layer spans
 * and the untraced op times the tracing overhead is measured
 * against.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/json.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/**
 * Untraced ops a run always makes: the tail percentile needs ten
 * samples beyond it, and with twenty it is at least the median.
 */
constexpr size_t kMinOps = 20;

/** Set-ups per run; their median is the run's set-up time. */
constexpr unsigned kSetups = 5;

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "maicc_perfbench: %s\nusage: maicc_perfbench "
                 "--workload NAME --seed N --seconds S [--trace 0|1] "
                 "[--threads 1..4]\n",
                 why);
    return 2;
}

maicc::Json
numbers(const std::vector<double> &v)
{
    maicc::Json a = maicc::Json::array();
    for (double x : v)
        a.push(x);
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    Options opt;
    double seconds = -1;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        bool numeric = !v.empty() && *end == '\0';
        if (k == "--workload")
            workload = v;
        else if (k == "--seed" && numeric)
            opt.seed = n;
        else if (k == "--seconds" && numeric)
            seconds = double(n);
        else if (k == "--trace" && numeric && n <= 1)
            trace = n == 1;
        else if (k == "--threads" && numeric && n >= 1 && n <= 4)
            opt.threads = unsigned(n);
        else
            return usage(("bad argument " + k + " " + v).c_str());
    }
    if (argc % 2 == 0)
        return usage("arguments come in --flag value pairs");
    if (seconds < 0)
        return usage("--seconds is required");
    auto w = makeWorkload(workload, opt);
    if (!w)
        return usage(("unknown workload '" + workload + "'").c_str());

    SpanRecorder rec;
    rec.setEnabled(trace);
    std::vector<double> setup_s;
    for (unsigned k = 0; k < kSetups; ++k) {
        auto t0 = Clock::now();
        w->setup(rec);
        setup_s.push_back(msSince(t0) / 1e3);
    }

    uint64_t attempted = 0, failed = 0;
    maicc::Json failures = maicc::Json::array();
    auto check = [&](int64_t op) {
        std::string why;
        ++attempted;
        if (!w->checkOp(why)) {
            ++failed;
            if (failures.size() < 8)
                failures.push("op " + std::to_string(op) + ": " + why);
        }
    };

    // Warm-up: fills lazily built state and becomes the first op
    // that every later op's outputs are compared against.
    rec.setEnabled(false);
    auto w0 = Clock::now();
    w->op(rec);
    double warmup_ms = msSince(w0);
    check(-1);

    std::vector<double> op_ms, traced_ms;
    auto deadline = Clock::now()
        + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
    for (int64_t i = 0;
         Clock::now() < deadline || op_ms.size() < kMinOps
         || (trace && traced_ms.empty());
         ++i) {
        bool traced = trace && i % 2 == 1;
        rec.setEnabled(traced);
        rec.setOp(i);
        auto t0 = Clock::now();
        {
            Span s(rec, "bench.op");
            w->op(rec);
        }
        (traced ? traced_ms : op_ms).push_back(msSince(t0));
        rec.setEnabled(false);
        check(i);
    }

    // Taken before the once-per-run check and the model probes
    // below, which build state of their own.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    double peak_rss_mb = double(ru.ru_maxrss) / 1024.0;

    rec.setEnabled(trace);
    rec.setOp(kCheckOp);
    std::string why;
    bool run_ok = w->checkRun(rec, why);
    if (!run_ok) {
        // Every op's output equals the first op's, so a wrong
        // output here is wrong in every op.
        failures.push("run: " + why);
        failed = attempted;
    }
    rec.setEnabled(false);

    SimOutcome sim = w->sim();
    Metrics counters;
    w->counters(counters);
    ModelResults model;
    w->modelResults(model);
    if (!probeModelResults(opt, model)) {
        failures.push("run: a model-level probe's output check failed");
        run_ok = false;
    }

    maicc::Json doc = maicc::Json::object();
    doc.set("workload", workload);
    doc.set("seed", opt.seed);
    doc.set("setup_s", numbers(setup_s));
    doc.set("warmup_ms", warmup_ms);
    doc.set("op_ms", numbers(op_ms));
    doc.set("traced_op_ms", numbers(traced_ms));
    doc.set("attempted", attempted);
    doc.set("failed", failed);
    doc.set("run_ok", run_ok);
    doc.set("failures", failures);
    doc.set("peak_rss_mb", peak_rss_mb);
    maicc::Json s = maicc::Json::object();
    s.set("cycles", sim.cycles);
    s.set("requests", sim.requests);
    s.set("requests_ok", sim.requestsOk);
    s.set("p99_ms", sim.p99Ms);
    doc.set("sim", s);
    maicc::Json m = maicc::Json::object();
    m.set("latency_err", model.latencyErr);
    m.set("efficiency_err", model.efficiencyErr);
    m.set("node_cycles_err", model.nodeCyclesErr);
    m.set("max_rate_under_slo", model.maxRateUnderSlo);
    doc.set("model", m);
    maicc::Json c = maicc::Json::array();
    for (const Metric &x : counters) {
        maicc::Json e = maicc::Json::object();
        e.set("name", x.name);
        e.set("value", x.value);
        e.set("unit", x.unit);
        c.push(e);
    }
    doc.set("counters", c);
    maicc::Json spans = maicc::Json::array();
    for (const SpanRecord &r : rec.records()) {
        maicc::Json e = maicc::Json::array();
        e.push(r.name);
        e.push(r.startNs);
        e.push(r.endNs);
        e.push(r.parent);
        e.push(r.op);
        spans.push(e);
    }
    doc.set("spans", spans);
    doc.write(std::cout);
    return 0;
}
