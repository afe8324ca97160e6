/**
 * @file
 * The JSON config binding (common/config.hh): lossless round
 * trips, partial overlays, and strict unknown-key / type-mismatch
 * errors with usable paths; plus the command-line layer
 * (common/cli.hh): unrecognized options, the flag rows, the
 * environment, and their precedence.
 *
 * The hardening tests are table-driven over configFields(), so a
 * field added to a field list is covered without touching this
 * file: every field rejects a wrong type, every unsigned field a
 * negative value, every numeric field each side of its range — and
 * every flag row rejects the same values, with the same message,
 * as the config file.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/seeded_test.hh"

using namespace maicc;

namespace
{

/** The load path of a config file: parse, overlay, validate. */
bool
loadDoc(std::istream &in, SimConfig &out, std::string *err)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    Json j;
    return Json::parse(buf.str(), j, err) && overlayConfig(j, out, err)
        && validateConfig(out, err);
}

std::string
dumpToString(const SimConfig &cfg)
{
    std::ostringstream os;
    dumpConfig(os, cfg);
    return os.str();
}

/**
 * A document setting only the field at schema @p path to @p v:
 * "serving.faults.events[].kind" -> {"serving": {"faults":
 * {"events": [{"kind": v}]}}}.
 */
Json
docAt(const std::string &path, Json v)
{
    size_t dot = path.rfind('.');
    std::string key = path.substr(dot == std::string::npos ? 0
                                                           : dot + 1);
    bool element = key.size() > 2
        && key.compare(key.size() - 2, 2, "[]") == 0;
    if (element) {
        Json a = Json::array();
        a.push(std::move(v));
        v = std::move(a);
        key.resize(key.size() - 2);
    }
    Json o = Json::object();
    o.set(key, std::move(v));
    return dot == std::string::npos ? o
                                    : docAt(path.substr(0, dot), o);
}

/** The value at schema @p path in @p doc (array element 0). */
Json
valueAt(const Json &doc, const std::string &path)
{
    const Json *at = &doc;
    for (size_t begin = 0; at && begin <= path.size();) {
        size_t dot = std::min(path.find('.', begin), path.size());
        std::string key = path.substr(begin, dot - begin);
        bool element = key.size() > 2
            && key.compare(key.size() - 2, 2, "[]") == 0;
        if (element)
            key.resize(key.size() - 2);
        at = at->find(key);
        if (at && element)
            at = at->size() ? &at->at(0) : nullptr;
        begin = dot + 1;
    }
    return at ? *at : Json();
}

/** The reader's path of a schema path: array element 0. */
std::string
errPath(std::string path)
{
    for (size_t at; (at = path.find("[]")) != std::string::npos;)
        path.replace(at, 2, "[0]");
    return path;
}

/** Overlay docAt(path, v) onto defaults; the error, "" if none. */
std::string
overlayError(const std::string &path, const Json &v)
{
    SimConfig cfg;
    std::string err;
    return overlayConfig(docAt(path, v), cfg, &err) ? "" : err;
}

/** A Json value from flag text, as the command line reads it. */
Json
fromText(const std::string &text)
{
    Json v;
    return Json::parse(text, v) ? v : Json(text);
}

const ConfigField &
field(const std::string &path)
{
    static const std::vector<ConfigField> schema = configFields();
    for (const ConfigField &f : schema)
        if (f.path == path)
            return f;
    ADD_FAILURE() << "no config field " << path;
    return schema.front();
}

/** One cli::Options run: finish()'s verdict and first stderr line. */
struct CliRun
{
    bool ok = false;
    std::string error;
    std::string dump;
    SimConfig config;
};

CliRun
runCli(std::vector<std::string> args, const SimConfig &defaults = {})
{
    std::string tool = "test_config";
    std::vector<char *> argv{tool.data()};
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    int argc = int(argv.size()) - 1;
    CliRun run;
    testing::internal::CaptureStderr();
    testing::internal::CaptureStdout();
    {
        cli::Options opt(tool, argc, argv.data(), defaults);
        run.ok = opt.finish();
        if (run.ok)
            opt.dumpConfigOnly();
        else
            EXPECT_EQ(opt.exitCode(), 2);
        run.config = opt.config;
    }
    run.dump = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    run.error = err.substr(0, err.find('\n'));
    return run;
}

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

/** Sets an environment variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name); }

  private:
    const char *name;
};

/** Values of @p f's type that sit just outside its range. */
std::vector<Json>
outOfRange(const ConfigField &f)
{
    std::vector<Json> out;
    if (f.type == Json::Type::Int) {
        if (f.lo.asInt() > std::numeric_limits<int64_t>::min())
            out.push_back(f.lo.asInt() - 1);
        if (f.hi.asInt() < std::numeric_limits<int64_t>::max())
            out.push_back(f.hi.asInt() + 1);
    } else if (f.type == Json::Type::Double) {
        double inf = std::numeric_limits<double>::infinity();
        out.push_back(std::nextafter(f.lo.asDouble(), -inf));
        out.push_back(std::nextafter(f.hi.asDouble(), inf));
    }
    return out;
}

} // namespace

TEST(Config, DefaultDumpRoundTripsByteForByte)
{
    SimConfig def;
    std::string first = dumpToString(def);

    SimConfig loaded;
    std::istringstream in(first);
    std::string err;
    ASSERT_TRUE(loadDoc(in, loaded, &err)) << err;
    EXPECT_EQ(dumpToString(loaded), first);
}

TEST(Config, DumpContainsEverySection)
{
    Json j = toJson(SimConfig{});
    for (const char *key : {"system", "core", "serving"})
        EXPECT_NE(j.find(key), nullptr) << key;
    const Json *system = j.find("system");
    for (const char *key :
         {"geometry", "noc", "dram", "llc", "coreBudget",
          "numThreads", "clockHz", "simCacheEntries"})
        EXPECT_NE(system->find(key), nullptr) << key;
}

TEST(Config, PartialOverlayKeepsOtherDefaults)
{
    SimConfig cfg;
    unsigned default_budget = cfg.system.coreBudget;
    std::istringstream in(
        "{\"system\": {\"numThreads\": 8},"
        " \"core\": {\"cmemQueueSize\": 4}}");
    std::string err;
    ASSERT_TRUE(loadDoc(in, cfg, &err)) << err;
    EXPECT_EQ(cfg.system.numThreads, 8u);
    EXPECT_EQ(cfg.core.cmemQueueSize, 4u);
    EXPECT_EQ(cfg.system.coreBudget, default_budget);
}

TEST(Config, UnknownKeyIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in("{\"system\": {\"coreBudgte\": 100}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("coreBudgte"), std::string::npos) << err;
    EXPECT_NE(err.find("system"), std::string::npos) << err;
}

TEST(Config, TypeMismatchIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in("{\"system\": {\"coreBudget\": \"x\"}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("coreBudget"), std::string::npos) << err;
}

TEST(Config, MalformedJsonIsAnError)
{
    SimConfig cfg;
    std::istringstream in("{\"system\": ");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Config, NonDefaultValuesSurviveTheRoundTrip)
{
    SimConfig cfg;
    cfg.system.coreBudget = 128;
    cfg.system.dram.accessBytes = 32;
    cfg.core.wbPorts = 2;
    cfg.serving.maxBatch = 4;
    cfg.serving.batchAcrossQueue = true;
    cfg.serving.policy = SchedPolicy::Priority;
    cfg.serving.backfill = true;
    cfg.serving.sloCycles = 750'000;
    cfg.serving.selfCheck = true;
    cfg.serving.chips = 4;
    cfg.serving.shardPolicy = ShardPolicy::LeastLoaded;

    SimConfig back;
    std::istringstream in(dumpToString(cfg));
    std::string err;
    ASSERT_TRUE(loadDoc(in, back, &err)) << err;
    EXPECT_EQ(back.system.coreBudget, 128u);
    EXPECT_EQ(back.system.dram.accessBytes, 32u);
    EXPECT_EQ(back.core.wbPorts, 2u);
    EXPECT_EQ(back.serving.maxBatch, 4u);
    EXPECT_TRUE(back.serving.batchAcrossQueue);
    EXPECT_EQ(back.serving.policy, SchedPolicy::Priority);
    EXPECT_TRUE(back.serving.backfill);
    EXPECT_EQ(back.serving.sloCycles, 750'000u);
    EXPECT_TRUE(back.serving.selfCheck);
    EXPECT_EQ(back.serving.chips, 4u);
    EXPECT_EQ(back.serving.shardPolicy, ShardPolicy::LeastLoaded);
    EXPECT_EQ(dumpToString(back), dumpToString(cfg));
}

TEST(Config, BadPolicySpellingIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"policy\": \"lifo\"}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("policy"), std::string::npos) << err;
}

TEST(Config, SjfPolicySurvivesTheRoundTrip)
{
    SimConfig cfg;
    cfg.serving.policy = SchedPolicy::Sjf;
    SimConfig back;
    std::istringstream in(dumpToString(cfg));
    std::string err;
    ASSERT_TRUE(loadDoc(in, back, &err)) << err;
    EXPECT_EQ(back.serving.policy, SchedPolicy::Sjf);
}

TEST(Config, BadShardPolicySpellingIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"shardPolicy\": \"hash\"}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("shardPolicy"), std::string::npos) << err;
}

TEST(Config, ZeroChipsIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in("{\"serving\": {\"chips\": 0}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("chips"), std::string::npos) << err;
}

TEST(Config, ShardPolicySpellingsAllParse)
{
    const std::pair<const char *, ShardPolicy> spellings[] = {
        {"round-robin", ShardPolicy::RoundRobin},
        {"least-loaded", ShardPolicy::LeastLoaded},
        {"model-affinity", ShardPolicy::ModelAffinity},
    };
    for (const auto &[name, want] : spellings) {
        SimConfig cfg;
        std::istringstream in(
            std::string("{\"serving\": {\"shardPolicy\": \"")
            + name + "\"}}");
        std::string err;
        ASSERT_TRUE(loadDoc(in, cfg, &err)) << err;
        EXPECT_EQ(cfg.serving.shardPolicy, want) << name;
        EXPECT_EQ(enumName(cfg.serving.shardPolicy),
                  std::string(name));
    }
}

TEST(Config, FaultConfigSurvivesTheRoundTrip)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"chips\": 2, \"timeoutCycles\": 5000,"
        " \"maxRetries\": 5, \"backoffCycles\": 100,"
        " \"shedQueueDepth\": 9,"
        " \"faults\": {\"seed\": 77, \"rate\": 1.5,"
        "  \"window\": 400000,"
        "  \"events\": [{\"kind\": \"dram-outage\", \"cycle\": 10,"
        "   \"chip\": 1, \"count\": 4, \"until\": 900},"
        "  {\"kind\": \"chip-fail-stop\", \"cycle\": 50}]}}}");
    std::string err;
    ASSERT_TRUE(loadDoc(in, cfg, &err)) << err;
    EXPECT_EQ(cfg.serving.timeoutCycles, 5000u);
    EXPECT_EQ(cfg.serving.maxRetries, 5u);
    EXPECT_EQ(cfg.serving.backoffCycles, 100u);
    EXPECT_EQ(cfg.serving.shedQueueDepth, 9u);
    EXPECT_EQ(cfg.serving.faults.seed, 77u);
    EXPECT_EQ(cfg.serving.faults.rate, 1.5);
    EXPECT_EQ(cfg.serving.faults.window, 400'000u);
    ASSERT_EQ(cfg.serving.faults.events.size(), 2u);
    EXPECT_EQ(cfg.serving.faults.events[0].kind,
              FaultKind::DramOutage);
    EXPECT_EQ(cfg.serving.faults.events[0].count, 4u);
    EXPECT_EQ(cfg.serving.faults.events[1].kind,
              FaultKind::ChipFailStop);

    // dump -> load -> dump is byte-stable with faults configured.
    std::string dumped = dumpToString(cfg);
    SimConfig back;
    std::istringstream in2(dumped);
    ASSERT_TRUE(loadDoc(in2, back, &err)) << err;
    EXPECT_EQ(dumpToString(back), dumped);
}

TEST(Config, UnknownFaultKindIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"meteor-strike\"}]}}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("events[0].kind"), std::string::npos) << err;
    EXPECT_NE(err.find("chip-fail-stop"), std::string::npos) << err;
}

TEST(Config, OutOfRangeFaultChipIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"chips\": 2, \"faults\": {\"events\":"
        " [{\"kind\": \"core-loss\", \"chip\": 5}]}}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("events[0].chip"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(Config, EmptyFaultWindowIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"noc-degrade\", \"cycle\": 100,"
        "   \"until\": 100}]}}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("events[0].until"), std::string::npos)
        << err;
    EXPECT_NE(err.find("empty fault window"), std::string::npos)
        << err;
}

TEST(Config, WindowOnPermanentFaultKindIsAnError)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"core-loss\", \"cycle\": 5,"
        "   \"until\": 50}]}}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("events[0].until"), std::string::npos)
        << err;
    EXPECT_NE(err.find("permanent"), std::string::npos) << err;
}

TEST(Config, DramOutageMustLeaveAChannel)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"system\": {\"dramChannels\": 8},"
        " \"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"dram-outage\", \"count\": 8}]}}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("events[0].count"), std::string::npos)
        << err;
    EXPECT_NE(err.find("DRAM channels"), std::string::npos) << err;
}

TEST(Config, NegativeFaultRateIsAnError)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"rate\": -0.5}}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("rate"), std::string::npos) << err;
}

TEST(Config, SubUnityNocDegradeFactorIsAnError)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"noc-degrade\", \"factor\": 0.5}]}}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("events[0].factor"), std::string::npos)
        << err;
}

TEST(Config, UnknownFaultEventKeyIsAnErrorWithPath)
{
    SimConfig cfg;
    std::istringstream in(
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"core-loss\", \"cores\": 4}]}}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_NE(err.find("events[0].cores"), std::string::npos)
        << err;
    EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
}

TEST(Config, RetiredEngineKeyIsAnUnknownKey)
{
    // The engine selector is gone; an old config naming it must
    // fail loudly rather than be silently ignored.
    SimConfig cfg;
    std::istringstream in("{\"system\": {\"engine\": \"event\"}}");
    std::string err;
    EXPECT_FALSE(loadDoc(in, cfg, &err));
    EXPECT_EQ(err, "system.engine: unknown key");
}

TEST(Config, RetiredEngineFlagIsUnrecognized)
{
    std::string tool = "test_config", flag = "--engine=event";
    char *argv[] = {tool.data(), flag.data(), nullptr};
    int argc = 2;
    cli::Options opt(tool, argc, argv);
    testing::internal::CaptureStderr();
    bool proceed = opt.finish();
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(proceed);
    EXPECT_EQ(opt.exitCode(), 2);
    EXPECT_NE(out.find("unrecognized option: --engine=event"),
              std::string::npos)
        << out;
}

TEST(Config, DefaultDumpMatchesTheGoldenFile)
{
    // Captured before the field lists replaced the hand-written
    // toJson bodies: key order and number formatting feed the
    // timing-cache key, so any drift here changes cached profiles.
    std::ifstream in(MAICC_CONFIG_GOLDEN);
    ASSERT_TRUE(in) << MAICC_CONFIG_GOLDEN;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(dumpToString(SimConfig{}), golden.str());
}

TEST(Config, EveryFieldRejectsAWrongType)
{
    for (const ConfigField &f : configFields()) {
        SCOPED_TRACE(f.path);
        Json wrong = f.type == Json::Type::Int
                || f.type == Json::Type::Double
            ? Json("x")
            : Json(1);
        EXPECT_EQ(overlayError(f.path, wrong),
                  errPath(f.path) + ": " + f.expected);
        if (f.type == Json::Type::Int) {
            EXPECT_EQ(overlayError(f.path, 1.5),
                      errPath(f.path) + ": " + f.expected);
        }
    }
}

TEST(Config, EveryUnsignedFieldRejectsANegativeValue)
{
    // static_cast used to wrap -1 to 4294967295 (coreBudget,
    // chips, ...).
    int unsigned_fields = 0;
    for (const ConfigField &f : configFields()) {
        if (f.type != Json::Type::Int || f.lo.asInt() < 0)
            continue;
        SCOPED_TRACE(f.path);
        ++unsigned_fields;
        EXPECT_EQ(overlayError(f.path, -1),
                  errPath(f.path) + ": " + f.expected);
    }
    EXPECT_GT(unsigned_fields, 40);
}

TEST(Config, EveryNumericFieldAcceptsItsBoundsAndNothingPast)
{
    for (const ConfigField &f : configFields()) {
        if (f.type != Json::Type::Int && f.type != Json::Type::Double)
            continue;
        SCOPED_TRACE(f.path);
        EXPECT_EQ(overlayError(f.path, f.lo), "");
        EXPECT_EQ(overlayError(f.path, f.hi), "");
        for (const Json &v : outOfRange(f)) {
            EXPECT_EQ(overlayError(f.path, v),
                      errPath(f.path) + ": " + f.expected)
                << v.dump();
        }
    }
}

TEST(Config, ValuesAboveTheMemberTypeAreRejected)
{
    // One past each member type's maximum: 2^32 for the unsigned
    // fields, 2^31 for the int ones, 2^63 (not even a Json integer)
    // for the 64-bit ones.
    std::string err;
    for (const char *doc :
         {"{\"system\": {\"coreBudget\": 4294967296}}",
          "{\"serving\": {\"queueCapacity\": 4294967296}}",
          "{\"system\": {\"geometry\": {\"meshW\": 2147483648}}}",
          "{\"serving\": {\"seed\": 9223372036854775808}}"}) {
        SimConfig cfg;
        std::istringstream in(doc);
        EXPECT_FALSE(loadDoc(in, cfg, &err)) << doc;
    }
    EXPECT_EQ(overlayError("serving.queueCapacity", int64_t(1) << 32),
              "serving.queueCapacity: expected an integer in "
              "[0, 4294967295]");
}

TEST(Config, RandomInRangeValuesRoundTrip)
{
    uint64_t seed = testseed::seedOrDefault(2026);
    MAICC_SEED_TRACE(seed);
    Rng rng(seed);
    for (const ConfigField &f : configFields()) {
        if (f.type != Json::Type::Int && f.type != Json::Type::Double)
            continue;
        SCOPED_TRACE(f.path);
        Json v;
        if (f.type == Json::Type::Int) {
            uint64_t span = uint64_t(f.hi.asInt())
                - uint64_t(f.lo.asInt());
            uint64_t draw = span == ~0ull ? rng.next()
                                          : rng.below(span + 1);
            v = int64_t(uint64_t(f.lo.asInt()) + draw);
        } else {
            v = f.lo.asDouble()
                + rng.real() * (f.hi.asDouble() - f.lo.asDouble());
        }
        SimConfig cfg;
        std::string err;
        ASSERT_TRUE(overlayConfig(docAt(f.path, v), cfg, &err)) << err;
        SimConfig back;
        ASSERT_TRUE(overlayConfig(toJson(cfg), back, &err)) << err;
        EXPECT_EQ(dumpToString(back), dumpToString(cfg));
        EXPECT_EQ(valueAt(toJson(back), f.path), v) << v.dump();
    }
}

TEST(Config, FlagsRejectWhatTheConfigFileRejects)
{
    // The same bad text as a config file value, as --config=FILE,
    // and as the row's flag: one message, naming the path or the
    // flag.
    for (const cli::ConfigFlag &row : cli::configFlags()) {
        const ConfigField &f = field(row.path);
        SCOPED_TRACE(row.name);
        std::vector<std::string> bad = {"abc", "[1]", "true"};
        if (f.type == Json::Type::Int)
            bad.push_back("2.5");
        for (const Json &v : outOfRange(f)) {
            std::string text = v.dump();
            bad.push_back(text.substr(0, text.size() - 1));
        }
        for (const std::string &text : bad) {
            SCOPED_TRACE(text);
            std::string what = ": " + f.expected;
            EXPECT_EQ(overlayError(f.path, fromText(text)),
                      f.path + what);

            std::string file = writeTemp(
                "bad_flag.json", docAt(f.path, fromText(text)).dump());
            CliRun by_file = runCli({"--config=" + file});
            EXPECT_FALSE(by_file.ok);
            EXPECT_EQ(by_file.error, "test_config: " + f.path + what);

            CliRun by_flag =
                runCli({std::string("--") + row.name + "=" + text});
            EXPECT_FALSE(by_flag.ok);
            EXPECT_EQ(by_flag.error,
                      std::string("test_config: --") + row.name + what);

            if (row.env) {
                ScopedEnv env(row.env, text.c_str());
                CliRun by_env = runCli({});
                EXPECT_FALSE(by_env.ok);
                EXPECT_EQ(by_env.error,
                          std::string("test_config: ") + row.env + what);
            }
        }
    }
}

TEST(Config, FlagsAcceptWhatTheConfigFileAccepts)
{
    for (const cli::ConfigFlag &row : cli::configFlags()) {
        const ConfigField &f = field(row.path);
        SCOPED_TRACE(row.name);
        std::vector<Json> good = {f.lo, f.hi};
        if (f.type == Json::Type::String)
            good.assign(f.names.begin(), f.names.end());
        for (const Json &v : good) {
            std::string text = v.isString() ? v.asString() : v.dump();
            if (!v.isString())
                text.pop_back();
            SCOPED_TRACE(text);
            SimConfig want;
            std::string err;
            ASSERT_TRUE(overlayConfig(docAt(f.path, v), want, &err))
                << err;
            ASSERT_TRUE(validateConfig(want, &err)) << err;
            CliRun run =
                runCli({std::string("--") + row.name + "=" + text,
                        "--dump-config"});
            ASSERT_TRUE(run.ok) << run.error;
            EXPECT_EQ(run.dump, dumpToString(want));
        }
    }
}

TEST(Config, MalformedThreadsEnvironmentIsAnError)
{
    // Once silently ignored, while --threads=abc exited 2.
    ScopedEnv env("MAICC_THREADS", "abc");
    CliRun run = runCli({});
    EXPECT_FALSE(run.ok);
    EXPECT_EQ(run.error, "test_config: MAICC_THREADS: expected an "
                         "integer in [0, 256]");
}

TEST(Config, ThreadCountIsBoundedAtLoad)
{
    // Checked at load only: no thread pool is built here.
    EXPECT_TRUE(runCli({"--threads=256"}).ok);
    CliRun run = runCli({"--threads=257"});
    EXPECT_FALSE(run.ok);
    EXPECT_EQ(run.error,
              "test_config: --threads: expected an integer in "
              "[0, 256]");
}

TEST(Config, PrecedenceIsDefaultsThenEnvThenFileThenFlag)
{
    SimConfig defaults;
    defaults.system.numThreads = 5;
    std::string file = writeTemp(
        "threads.json", "{\"system\": {\"numThreads\": 3}}");
    EXPECT_EQ(runCli({}, defaults).config.system.numThreads, 5u);
    ScopedEnv env("MAICC_THREADS", "2");
    EXPECT_EQ(runCli({}, defaults).config.system.numThreads, 2u);
    EXPECT_EQ(runCli({"--config=" + file}, defaults)
                  .config.system.numThreads,
              3u);
    CliRun all = runCli({"--config=" + file, "--threads=4"}, defaults);
    EXPECT_EQ(all.config.system.numThreads, 4u);
    EXPECT_EQ(all.config.serving.system.numThreads, 4u);
}

TEST(Config, DumpConfigPrintsTheBinaryDefaults)
{
    SimConfig defaults;
    defaults.serving.seed = 7;
    defaults.serving.offeredRequests = 12;
    CliRun run = runCli({"--dump-config"}, defaults);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.dump, dumpToString(defaults));
    CliRun seeded = runCli({"--dump-config", "--seed=3"}, defaults);
    EXPECT_EQ(seeded.config.serving.seed, 3u);
    EXPECT_EQ(seeded.config.serving.offeredRequests, 12u);
}

TEST(Config, FaultChecksSeeTheFinalChipCount)
{
    // A file's fault on chip 1 is valid once --chips=2 lands, and
    // the cross-field check runs once, after every layer.
    std::string file = writeTemp(
        "chip1.json",
        "{\"serving\": {\"faults\": {\"events\":"
        " [{\"kind\": \"core-loss\", \"chip\": 1}]}}}");
    EXPECT_TRUE(runCli({"--config=" + file, "--chips=2"}).ok);
    CliRun one = runCli({"--config=" + file});
    EXPECT_FALSE(one.ok);
    EXPECT_NE(one.error.find("serving.faults.events[0].chip"),
              std::string::npos)
        << one.error;
}

TEST(Config, InputsThatCrashedTheModelsAreRejectedAtLoad)
{
    // Each of these once loaded and then aborted, divided by zero
    // or wrapped inside a model; now each is a load error naming
    // its path.
    const std::pair<const char *, const char *> cases[] = {
        {"{\"serving\": {\"chips\": 65}}", "serving.chips"},
        {"{\"serving\": {\"chips\": -1}}", "serving.chips"},
        {"{\"system\": {\"coreBudget\": -1}}", "system.coreBudget"},
        {"{\"system\": {\"llc\": {\"ways\": 0}}}",
         "system.llc.ways"},
        {"{\"system\": {\"llc\": {\"lineBytes\": 0}}}",
         "system.llc.lineBytes"},
        {"{\"system\": {\"geometry\": {\"computeW\": 0}}}",
         "system.geometry.computeW"},
        {"{\"system\": {\"noc\": {\"queueDepth\": 0}}}",
         "system.noc.queueDepth"},
        // Cross-field: each field is in range, the combination not.
        {"{\"system\": {\"coreBudget\": 211}}", "system.coreBudget"},
        {"{\"system\": {\"geometry\": {\"computeX0\": 2}}}",
         "system.geometry"},
        {"{\"system\": {\"noc\": {\"width\": 1}}}", "system.noc"},
        {"{\"system\": {\"llc\": {\"lineBytes\": 48}}}",
         "system.llc.lineBytes"},
        {"{\"system\": {\"llc\": {\"sizeBytes\": 256}}}",
         "system.llc.sizeBytes"},
    };
    for (const auto &[doc, path] : cases) {
        SimConfig cfg;
        std::istringstream in(doc);
        std::string err;
        EXPECT_FALSE(loadDoc(in, cfg, &err)) << doc;
        EXPECT_EQ(err.rfind(std::string(path) + ": ", 0), 0u)
            << doc << " -> " << err;
    }
}
