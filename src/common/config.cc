#include "common/config.hh"

#include <algorithm>
#include <concepts>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

namespace maicc
{

namespace
{

template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

// ------------------------------------------------------------------
// Field lists: one per config struct, in dump order. Json keeps
// insertion order and the timing-cache key hashes the system dump,
// so reordering a list changes bytes. f(key, member) accepts the
// member type's whole range; f(key, member, lo, hi) narrows it to
// what the models can run without dividing by zero, overflowing a
// table, or asserting.
// ------------------------------------------------------------------

template <typename F, Is<ArrayGeometry> S>
void
fields(F &&f, S &g)
{
    // MeshNoc caps a mesh at 65,536 nodes.
    f("meshW", g.meshW, 1, 256);
    f("meshH", g.meshH, 1, 256);
    f("computeX0", g.computeX0, 0, 255);
    f("computeY0", g.computeY0, 0, 255);
    f("computeW", g.computeW, 1, 256);
    f("computeH", g.computeH, 1, 256);
}

template <typename F, Is<NocConfig> S>
void
fields(F &&f, S &c)
{
    f("width", c.width, 1, 256);
    f("height", c.height, 1, 256);
    f("routerLatency", c.routerLatency, 0, 1024);
    f("queueDepth", c.queueDepth, 1, 64);
}

template <typename F, Is<DramConfig> S>
void
fields(F &&f, S &c)
{
    // rowBytes x numBanks stays inside 32 bits.
    f("numBanks", c.numBanks, 1, 1024);
    f("rowBytes", c.rowBytes, 1, 1 << 20);
    f("accessBytes", c.accessBytes, 1, 1 << 20);
    f("tRCD", c.tRCD, 0, 1 << 20);
    f("tCAS", c.tCAS, 0, 1 << 20);
    f("tRP", c.tRP, 0, 1 << 20);
    f("tRAS", c.tRAS, 0, 1 << 20);
    f("burst", c.burst, 1, 1 << 20);
}

template <typename F, Is<CacheConfig> S>
void
fields(F &&f, S &c)
{
    f("sizeBytes", c.sizeBytes, 1, 1u << 30);
    f("lineBytes", c.lineBytes, 1, 4096);
    f("ways", c.ways, 1, 1024);
    f("hitLatency", c.hitLatency, 0, 1 << 20);
}

template <typename F, Is<CoreConfig> S>
void
fields(F &&f, S &c)
{
    // Latencies bound the sliding write-back booking window.
    f("cmemQueueSize", c.cmemQueueSize, 0, 64);
    f("wbPorts", c.wbPorts, 1, 64);
    f("mulLatency", c.mulLatency, 0, 1024);
    f("divLatency", c.divLatency, 0, 1024);
    f("loadLatency", c.loadLatency, 0, 1024);
    f("remoteLatency", c.remoteLatency, 0, 1024);
    f("branchPenalty", c.branchPenalty, 0, 1024);
}

template <typename F, Is<SystemConfig> S>
void
fields(F &&f, S &c)
{
    f("coreBudget", c.coreBudget, 1, 65536);
    f("dramChannels", c.dramChannels, 1, 512);
    f("clockHz", c.clockHz, 1.0, 1e12);
    // ThreadPool starts numThreads - 1 threads (0 = hardware).
    f("numThreads", c.numThreads, 0, 256);
    f("simCacheEntries", c.simCacheEntries);
    f("geometry", c.geometry);
    f("noc", c.noc);
    f("dram", c.dram);
    f("llc", c.llc);
}

template <typename F, Is<FaultEvent> S>
void
fields(F &&f, S &e)
{
    // Kind-specific rules are validateFaultConfig's.
    f("kind", e.kind);
    f("cycle", e.cycle);
    f("chip", e.chip, 0, 63);
    f("count", e.count);
    f("until", e.until);
    f("factor", e.factor, 0.0, 1e6);
}

template <typename F, Is<FaultConfig> S>
void
fields(F &&f, S &c)
{
    f("events", c.events);
    f("seed", c.seed);
    f("rate", c.rate, 0.0, 1e6);
    f("window", c.window);
}

template <typename F, Is<ServingConfig> S>
void
fields(F &&f, S &c)
{
    // serving.system is the top-level system tree; not listed.
    f("arrivals", c.arrivals);
    f("seed", c.seed);
    f("meanInterarrival", c.meanInterarrival);
    f("offeredRequests", c.offeredRequests);
    f("horizon", c.horizon);
    f("queueCapacity", c.queueCapacity);
    f("maxBatch", c.maxBatch, 1, ~0u);
    f("batchAcrossQueue", c.batchAcrossQueue);
    f("policy", c.policy);
    f("backfill", c.backfill);
    f("sloCycles", c.sloCycles);
    f("cutoff", c.cutoff);
    f("selfCheck", c.selfCheck);
    // Shard masks are uint64_t (cluster.cc).
    f("chips", c.chips, 1, 64);
    f("shardPolicy", c.shardPolicy);
    f("faults", c.faults);
    f("timeoutCycles", c.timeoutCycles);
    f("maxRetries", c.maxRetries);
    f("backoffCycles", c.backoffCycles);
    f("shedQueueDepth", c.shedQueueDepth);
}

template <typename F, Is<SimConfig> S>
void
fields(F &&f, S &c)
{
    f("system", c.system);
    f("core", c.core);
    f("serving", c.serving);
}

// ------------------------------------------------------------------
// The walkers: one writer, one reader, one schema lister.
// ------------------------------------------------------------------

template <typename T>
constexpr bool kIsVector = false;
template <typename E>
constexpr bool kIsVector<std::vector<E>> = true;

/** A numeric field's accepted range, inclusive. */
template <typename T>
struct Range
{
    T lo, hi;
};

/**
 * The range a field list gives, or the member type's own. Integers
 * stop at INT64_MAX, the largest integer a Json holds.
 */
template <typename T, typename... B>
Range<T>
rangeOf(B... bounds)
{
    if constexpr (sizeof...(B) == 2) {
        return {static_cast<T>(bounds)...};
    } else if constexpr (std::is_floating_point_v<T>) {
        return {std::numeric_limits<T>::lowest(),
                std::numeric_limits<T>::max()};
    } else {
        constexpr int64_t json_max =
            std::numeric_limits<int64_t>::max();
        return {std::numeric_limits<T>::min(),
                std::cmp_less(json_max, std::numeric_limits<T>::max())
                    ? T(json_max)
                    : std::numeric_limits<T>::max()};
    }
}

/** A number as the dump writes it. */
template <typename T>
std::string
numberText(T x)
{
    std::string s = Json(x).dump();
    s.pop_back(); // the top-level newline
    return s;
}

/** What the reader says about a bad value of a T field. */
template <typename T, typename... B>
std::string
expected(B... bounds)
{
    if constexpr (std::is_same_v<T, bool>) {
        return "expected a boolean";
    } else if constexpr (std::is_enum_v<T>) {
        return enumExpected<T>();
    } else {
        Range<T> r = rangeOf<T>(bounds...);
        return std::string("expected ")
            + (std::is_integral_v<T> ? "an integer" : "a number")
            + " in [" + numberText(r.lo) + ", " + numberText(r.hi)
            + "]";
    }
}

std::string
child(const std::string &path, const char *key)
{
    return path.empty() ? std::string(key) : path + "." + key;
}

template <typename T>
Json
write(const T &m)
{
    if constexpr (std::is_enum_v<T>) {
        return enumName(m);
    } else if constexpr (std::is_arithmetic_v<T>) {
        return m;
    } else if constexpr (kIsVector<T>) {
        Json a = Json::array();
        for (const auto &e : m)
            a.push(write(e));
        return a;
    } else {
        Json o = Json::object();
        fields([&o](const char *key, const auto &v,
                    auto...) { o.set(key, write(v)); },
               m);
        return o;
    }
}

template <typename T, typename... B>
bool
read(const Json &v, T &m, const std::string &where, std::string *err,
     B... bounds)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = where + ": " + what;
        return false;
    };
    if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return fail(expected<T>());
        m = v.asBool();
    } else if constexpr (std::is_enum_v<T>) {
        if (!v.isString() || !parseEnum(v.asString(), m))
            return fail(expected<T>());
    } else if constexpr (std::is_integral_v<T>) {
        Range<T> r = rangeOf<T>(bounds...);
        if (!v.isInt() || std::cmp_less(v.asInt(), r.lo)
            || std::cmp_greater(v.asInt(), r.hi))
            return fail(expected<T>(bounds...));
        m = T(v.asInt());
    } else if constexpr (std::is_floating_point_v<T>) {
        Range<T> r = rangeOf<T>(bounds...);
        if (!v.isNumber() || v.asDouble() < r.lo
            || v.asDouble() > r.hi)
            return fail(expected<T>(bounds...));
        m = v.asDouble();
    } else if constexpr (kIsVector<T>) {
        if (!v.isArray())
            return fail("expected an array");
        T out(v.size());
        for (size_t i = 0; i < v.size(); ++i) {
            if (!read(v.at(i), out[i],
                      where + "[" + std::to_string(i) + "]", err))
                return false;
        }
        m = std::move(out);
    } else {
        // Strict about keys: a key no field consumed is a typo in a
        // hand-written config, and fails loudly.
        if (!v.isObject())
            return fail("expected an object");
        std::vector<std::string> known;
        bool good = true;
        fields([&](const char *key, auto &f, auto... b) {
            known.push_back(key);
            const Json *x = good ? v.find(key) : nullptr;
            if (x)
                good = read(*x, f, child(where, key), err, b...);
        }, m);
        for (const auto &member : v.members()) {
            if (good && std::find(known.begin(), known.end(),
                                  member.first) == known.end()) {
                good = false;
                if (err)
                    *err = child(where, member.first.c_str())
                        + ": unknown key";
            }
        }
        return good;
    }
    return true;
}

template <typename T, typename... B>
void
listFields(std::vector<ConfigField> &out, const std::string &path,
           const T &m, B... bounds)
{
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
        ConfigField f{path, Json::Type::Bool, {}, {},
                      expected<T>(bounds...), {}};
        if constexpr (std::is_enum_v<T>) {
            f.type = Json::Type::String;
            for (const Spelling<T> &s : spellings(T{}))
                f.names.push_back(s.name);
        } else if constexpr (!std::is_same_v<T, bool>) {
            Range<T> r = rangeOf<T>(bounds...);
            f.type = std::is_integral_v<T> ? Json::Type::Int
                                           : Json::Type::Double;
            f.lo = r.lo;
            f.hi = r.hi;
        }
        out.push_back(std::move(f));
    } else if constexpr (kIsVector<T>) {
        listFields(out, path + "[]", typename T::value_type{});
    } else {
        fields([&](const char *key, const auto &v, auto... b) {
            listFields(out, child(path, key), v, b...);
        }, m);
    }
}

} // namespace

Json
toJson(const SimConfig &c)
{
    return write(c);
}

Json
toJson(const SystemConfig &c)
{
    return write(c);
}

bool
overlayConfig(const Json &j, SimConfig &out, std::string *err)
{
    return read(j, out, "", err);
}

bool
overlayFaults(const Json &j, FaultConfig &out, std::string *err)
{
    return read(j, out, "faults", err);
}

bool
setConfigField(SimConfig &out, const std::string &path,
               const std::string &text, const std::string &where,
               std::string *err)
{
    Json doc;
    if (!Json::parse(text, doc))
        doc = Json(text);
    // Wrap the value in one object per path component, innermost
    // first: "serving.chips" -> {"serving": {"chips": value}}.
    for (size_t end = path.size(); end != std::string::npos;) {
        size_t dot = path.rfind('.', end - 1);
        size_t begin = dot == std::string::npos ? 0 : dot + 1;
        Json wrap = Json::object();
        wrap.set(path.substr(begin, end - begin), std::move(doc));
        doc = std::move(wrap);
        end = dot;
    }
    std::string e;
    if (overlayConfig(doc, out, &e))
        return true;
    // The only key in the document is the field itself, so the
    // message starts with its path: name the flag instead.
    if (err)
        *err = where + e.substr(std::min(path.size(), e.size()));
    return false;
}

bool
validateConfig(SimConfig &cfg, std::string *err)
{
    auto fail = [&](const std::string &where,
                    const std::string &what) {
        if (err)
            *err = where + ": " + what;
        return false;
    };
    const SystemConfig &s = cfg.system;
    const ArrayGeometry &g = s.geometry;
    if (g.computeX0 + g.computeW > g.meshW
        || g.computeY0 + g.computeH > g.meshH) {
        return fail("system.geometry",
                    "the compute region does not fit in the "
                        + std::to_string(g.meshW) + " x "
                        + std::to_string(g.meshH) + " mesh");
    }
    // One mesh: the NoC routes over the array the geometry places on.
    if (s.noc.width != g.meshW || s.noc.height != g.meshH) {
        return fail("system.noc",
                    "a " + std::to_string(s.noc.width) + " x "
                        + std::to_string(s.noc.height)
                        + " NoC does not match the "
                        + std::to_string(g.meshW) + " x "
                        + std::to_string(g.meshH)
                        + " mesh of system.geometry");
    }
    if (s.coreBudget > g.computeNodes()) {
        return fail("system.coreBudget",
                    "exceeds the " + std::to_string(g.computeNodes())
                        + " compute nodes of system.geometry");
    }
    if (s.llc.lineBytes & (s.llc.lineBytes - 1))
        return fail("system.llc.lineBytes", "expected a power of 2");
    if (s.llc.numSets() < 1) {
        return fail("system.llc.sizeBytes",
                    "expected at least lineBytes x ways");
    }
    if (!validateFaultConfig(cfg.serving.faults, cfg.serving.chips,
                             s.dramChannels, err))
        return false;
    // One system tree: the serving layer always runs under it.
    cfg.serving.system = cfg.system;
    return true;
}

bool
readJsonFile(const std::string &path, const char *what, Json &out,
             std::string *err)
{
    std::ostringstream buf;
    if (path == "-") {
        buf << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        if (!in) {
            if (err)
                *err = std::string("cannot open ") + what
                    + " file: " + path;
            return false;
        }
        buf << in.rdbuf();
    }
    return Json::parse(buf.str(), out, err);
}

void
dumpConfig(std::ostream &os, const SimConfig &cfg)
{
    toJson(cfg).write(os);
}

std::vector<ConfigField>
configFields()
{
    std::vector<ConfigField> out;
    listFields(out, "", SimConfig{});
    return out;
}

} // namespace maicc
