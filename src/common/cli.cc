#include "common/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common/sim_component.hh"

namespace maicc
{
namespace cli
{

namespace
{

bool
parseUint(const std::string &s, uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

constexpr ConfigFlag kConfigFlags[] = {
    {"threads", "MAICC_THREADS", "system.numThreads"},
    {"seed", nullptr, "serving.seed"},
    {"sim-cache", nullptr, "system.simCacheEntries"},
    {"policy", nullptr, "serving.policy"},
    {"slo-cycles", nullptr, "serving.sloCycles"},
    {"chips", nullptr, "serving.chips"},
    {"shard-policy", nullptr, "serving.shardPolicy"},
    {"fault-seed", nullptr, "serving.faults.seed"},
    {"fault-rate", nullptr, "serving.faults.rate"},
    {"timeout-cycles", nullptr, "serving.timeoutCycles"},
    {"max-retries", nullptr, "serving.maxRetries"},
    {"backoff-cycles", nullptr, "serving.backoffCycles"},
    {"shed-queue-depth", nullptr, "serving.shedQueueDepth"},
};

/** "--name=VALUE  path, accepted values" per row. */
std::string
usage()
{
    std::string out = "common flags: --config=FILE --dump-config "
                      "--stats-json=FILE --host-timers --trace=FILE "
                      "--faults=FILE\n";
    std::vector<ConfigField> schema = configFields();
    for (const ConfigFlag &row : kConfigFlags) {
        const ConfigField &f = *std::find_if(
            schema.begin(), schema.end(),
            [&](const ConfigField &c) { return c.path == row.path; });
        std::string value = f.type == Json::Type::Int ? "N"
            : f.type == Json::Type::Double            ? "R"
                                                      : "";
        for (const std::string &n : f.names)
            value += (value.empty() ? "" : "|") + n;
        out += "  --";
        out += row.name;
        out += "=" + value + "  " + row.path;
        if (f.names.empty())
            out += ", " + f.expected.substr(std::strlen("expected "));
        if (row.env)
            out += std::string(" (or ") + row.env + ")";
        out += "\n";
    }
    return out;
}

} // namespace

std::span<const ConfigFlag>
configFlags()
{
    return kConfigFlags;
}

std::string
Options::take(int &argc, char **argv, const char *name)
{
    std::string bare = "--";
    bare += name;
    std::string prefix = bare + "=";
    const char *value = "";
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (!std::strncmp(argv[i], prefix.c_str(),
                          prefix.size())) {
            value = argv[i] + prefix.size();
        } else if (bare == argv[i]) {
            value = "1"; // flag form: --dump-config
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return value;
}

void
Options::fail(const std::string &msg)
{
    if (error.empty())
        error = msg;
}

Options::Options(std::string tool_name, int &argc, char **argv,
                 SimConfig defaults)
    : config(std::move(defaults)), tool(std::move(tool_name)),
      argcp(&argc), argv(argv)
{
    std::string err;
    // Environment first: the lowest layer above the defaults.
    if (const char *env = std::getenv("MAICC_TRACE"))
        trace = env;
    for (const ConfigFlag &row : kConfigFlags) {
        const char *v = row.env ? std::getenv(row.env) : nullptr;
        if (v && *v
            && !setConfigField(config, row.path, v, row.env, &err))
            fail(err);
    }

    // Then the files: --config, and --faults on top of its faults.
    std::string path = take(argc, argv, "config");
    Json doc;
    if (!path.empty()
        && !(readJsonFile(path, "config", doc, &err)
             && overlayConfig(doc, config, &err)))
        fail(err);
    path = take(argc, argv, "faults");
    if (!path.empty()
        && !(readJsonFile(path, "faults", doc, &err)
             && overlayFaults(doc, config.serving.faults, &err)))
        fail("--faults: " + err);

    // Explicit flags win over everything.
    for (const ConfigFlag &row : kConfigFlags) {
        std::string v = take(argc, argv, row.name);
        if (!v.empty()
            && !setConfigField(config, row.path, v,
                               std::string("--") + row.name, &err))
            fail(err);
    }
    if (std::string t = take(argc, argv, "trace"); !t.empty())
        trace = t;
    hostTimers = !take(argc, argv, "host-timers").empty();
    statsJson = take(argc, argv, "stats-json");
    dumpConfig = !take(argc, argv, "dump-config").empty();

    // The cross-field checks see the final tree, once.
    if (error.empty() && !validateConfig(config, &err))
        fail(err);
}

std::string
Options::flag(const char *name, const std::string &def)
{
    std::string v = take(*argcp, argv, name);
    return v.empty() ? def : v;
}

uint64_t
Options::flagUint(const char *name, uint64_t def)
{
    std::string v = take(*argcp, argv, name);
    if (v.empty())
        return def;
    uint64_t out = 0;
    if (!parseUint(v, out)) {
        fail(std::string("--") + name
             + ": expected an unsigned integer");
        return def;
    }
    return out;
}

bool
Options::finish(bool allow_extra)
{
    if (error.empty() && !allow_extra) {
        for (int i = 1; i < *argcp; ++i) {
            if (!std::strncmp(argv[i], "--", 2)) {
                error = std::string("unrecognized option: ")
                    + argv[i];
                break;
            }
        }
    }
    if (!error.empty()) {
        std::fprintf(stderr, "%s: %s\n", tool.c_str(),
                     error.c_str());
        std::fputs(usage().c_str(), stderr);
        return false;
    }
    return true;
}

bool
Options::dumpConfigOnly()
{
    if (!dumpConfig)
        return false;
    dumpConfig = false; // print once
    maicc::dumpConfig(std::cout, config);
    return true;
}

bool
Options::writeStats(SimContext &ctx) const
{
    // --host-timers opts the nondeterministic wall-clock counters
    // into the dump (SimContext::enableHostTimers).
    ctx.enableHostTimers(hostTimers);
    if (statsJson.empty())
        return true;
    if (!ctx.writeStatsJsonFile(statsJson)) {
        std::fprintf(stderr, "%s: cannot write stats to %s\n",
                     tool.c_str(), statsJson.c_str());
        return false;
    }
    return true;
}

} // namespace cli
} // namespace maicc
