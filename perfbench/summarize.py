"""Turn one raw maicc_perfbench document into the benchmark's metrics.

The C++ binary reports raw samples: set-up times, op times, the
simulated outcome of one op, per-layer counts and (traced runs) the
spans it recorded around each call into a simulator module. This
module computes everything derived from them: medians, the tail
percentile, rates, span-based layer times, self times, the tracing
overhead and the Chrome trace-event file.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer host times measured by spans: metric -> (span name,
# aggregation, unit). "call" takes the median over calls; "op" sums
# the calls of each op first, then takes the median over ops.
SPAN_METRICS = {
    "mapping.plan_ms": ("mapping.plan", "call", "ms"),
    "system.ctor_ms": ("system.ctor", "call", "ms"),
    "system.reset_ms": ("system.reset", "call", "ms"),
    "system.run_ms": ("system.run", "call", "ms"),
    "nn.reference_ms": ("nn.reference", "call", "ms"),
    "serving.profile_miss_ms": ("serving.profile_miss", "call", "ms"),
    "serving.profile_hit_us": ("serving.profile_hit", "call", "us"),
    "serving.loop_ms": ("serving.run", "op", "ms"),
    "cluster.run_ms": ("cluster.run", "op", "ms"),
    "core.maicc.run_ms": ("core.maicc.run", "op", "ms"),
    "core.scalar.run_ms": ("core.scalar.run", "op", "ms"),
    "cmem.stage_ms": ("cmem.stage", "op", "ms"),
    "noc.run_ms": ("noc.run", "op", "ms"),
    "dram.run_ms": ("dram.run", "op", "ms"),
}

NS_PER = {"ms": 1e6, "us": 1e3, "s": 1e9}

# Modules whose self time per traced op is reported. "bench" is the
# benchmark's own glue inside an op (the root span's self time).
MODULES = ("bench", "mapping", "system", "energy", "nn", "serving",
           "sim_cache", "cluster", "core", "cmem", "noc", "dram")


def tail_percentile(samples):
    """The highest nearest-rank percentile with at least ten samples
    above it: (value, percentile, sample count), or None when there
    are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # 1-based; samples rank+1..n lie beyond it
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def self_times(spans):
    """Self time of each span, in ns: its duration minus the part of
    its interval that its child spans cover. Spans are tuples
    (name, start, end, parent, op) with parent an index or -1."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        ivals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                       for c in children[i])
        covered, cur_s, cur_e = 0, None, None
        for s, e in ivals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((end - start) - covered)
    return out


def module_of(span_name):
    return span_name.split(".", 1)[0]


def module_self_ms(spans, ops):
    """Self time per module in ms, summed over spans whose op id is
    in @p ops and divided by the number of those ops."""
    if not ops:
        return {m: 0.0 for m in MODULES}
    totals = {m: 0.0 for m in MODULES}
    for s, self_ns in zip(spans, self_times(spans)):
        if s[4] in ops:
            mod = module_of(s[0])
            totals[mod] = totals.get(mod, 0.0) + self_ns / 1e6
    return {m: v / len(ops) for m, v in totals.items()}


def span_metric(spans, span_name, how, unit):
    """Median duration of @p span_name spans (see SPAN_METRICS), or
    None when no such span was recorded."""
    per = {}
    for i, s in enumerate(spans):
        if s[0] != span_name:
            continue
        key = i if how == "call" else s[4]
        per[key] = per.get(key, 0) + (s[2] - s[1])
    if not per:
        return None
    return statistics.median(per.values()) / NS_PER[unit]


def chrome_trace(spans):
    """Spans as Chrome trace-event JSON (Perfetto and about:tracing
    open it): one complete ("X") event per span, microseconds."""
    events = []
    for name, start, end, parent, op in spans:
        events.append({
            "name": name, "cat": module_of(name), "ph": "X",
            "ts": start / 1e3, "dur": (end - start) / 1e3,
            "pid": 1, "tid": 1, "args": {"op": op, "parent": parent},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def host_speed(raw):
    """Median op host time and the simulated rates per host second
    it gives. Reported but not gated: minute-long host contention
    moves them by more than any bound (README, "Steadiness")."""
    p50 = statistics.median(raw["op_ms"])
    host_s = p50 / 1e3
    sim = raw["sim"]
    return {
        "host_op_ms.p50": (p50, "ms"),
        "sim_cycles_per_host_s": (sim["cycles"] / host_s, "cycles/s"),
        "sim_requests_per_host_s": (sim["requests"] / host_s, "req/s"),
    }


def end_to_end(raw):
    """The end-to-end metrics of an untraced run: name -> (value,
    unit)."""
    tail = tail_percentile(raw["op_ms"])
    sim, model = raw["sim"], raw["model"]
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "host_op_ms.tail": (tail[0] if tail else math.nan, "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "ops_ok_ratio": (1 - raw["failed"] / raw["attempted"], "ratio"),
        "sim_requests_ok_ratio":
            (sim["requests_ok"] / sim["requests"], "ratio"),
        "sim_p99_ms": (sim["p99_ms"], "sim_ms"),
        "sim_max_rate_under_slo":
            (model["max_rate_under_slo"], "sim_req/s"),
        "paper_err.latency": (model["latency_err"], "ratio"),
        "paper_err.efficiency": (model["efficiency_err"], "ratio"),
        "paper_err.node_cycles": (model["node_cycles_err"], "ratio"),
    }


def per_layer(raw):
    """The per-layer metrics of a traced run that the workload
    exercised: name -> (value, unit)."""
    spans = [tuple(s) for s in raw["spans"]]
    out = {c["name"]: (c["value"], c["unit"]) for c in raw["counters"]}
    out.update(host_speed(raw))
    for metric, (span_name, how, unit) in SPAN_METRICS.items():
        v = span_metric(spans, span_name, how, unit)
        if v is not None:
            out[metric] = (v, unit)
    requests = raw["sim"]["requests"]
    for layer, host in (("serving", "serving.loop_ms"),
                        ("cluster", "cluster.run_ms")):
        if host in out:
            out[layer + ".loop_us_per_request"] = (
                out[host][0] * 1e3 / requests, "us")
    if "noc.run_ms" in out and "noc.sim.cycles" in out:
        out["noc.cycles_per_host_s"] = (
            out["noc.sim.cycles"][0] / (out["noc.run_ms"][0] / 1e3),
            "cycles/s")
    traced_ops = {s[4] for s in spans if s[0] == "bench.op"}
    for mod, ms in module_self_ms(spans, traced_ops).items():
        out[mod + ".self_ms"] = (ms, "ms")
    out["trace.overhead_pct"] = (tracing_overhead_pct(raw), "%")
    return out


def tracing_overhead_pct(raw):
    """Traced over untraced median op time, as a percentage above
    1 (the two kinds of op alternate within one run)."""
    return (statistics.median(raw["traced_op_ms"])
            / statistics.median(raw["op_ms"]) - 1) * 100


def select(measured, declared, fill_missing):
    """Order @p measured by the @p declared metric list and check it
    against it: every measured metric must be declared with the same
    unit; declared ones not measured are an error, or 0 when
    @p fill_missing (a layer the workload does not exercise)."""
    out = {}
    for d in declared:
        name, unit = d["name"], d["unit"]
        if name in measured:
            value, got = measured[name]
            if got != unit:
                raise ValueError(f"{name}: unit {got}, declared {unit}")
        elif fill_missing:
            value = 0.0
        else:
            raise ValueError(f"{name}: declared but not measured")
        out[name] = {"value": value, "unit": unit}
    extra = set(measured) - set(out)
    if extra:
        raise ValueError(f"measured but not declared: {sorted(extra)}")
    return out


def check_spec(spec):
    """Metric names in BENCHMARK.json: well formed, used once, and
    each with a unit."""
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad:
        raise ValueError(f"malformed metric names: {bad}")
    dup = sorted({n for n in names if names.count(n) > 1})
    if dup:
        raise ValueError(f"metric names used twice: {dup}")
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            if not UNIT_RE.match(m.get("unit", "")):
                raise ValueError(f"{m['name']}: bad or missing unit")
