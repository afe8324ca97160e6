/**
 * @file
 * The one command-line front end shared by every bench and example
 * binary. Two kinds of common flag:
 *
 *  - *Run plumbing*, handled here: `--config=FILE` (overlay a JSON
 *    config, "-" = stdin; schema DESIGN.md §12), `--dump-config`
 *    (print the effective config and exit), `--stats-json=FILE`,
 *    `--host-timers`, `--trace=FILE` (also MAICC_TRACE) and
 *    `--faults=FILE` (a FaultConfig document into serving.faults).
 *  - *Config rows*: every other common flag sets one config field
 *    and is a row of configFlags() in cli.cc — its name, its
 *    environment variable if any, and the field's path. A row's
 *    value goes through the config reader (common/config.hh), so a
 *    flag, its variable and a config file accept the same values
 *    and fail with the same message. The usage text is generated
 *    from the rows.
 *
 * Precedence: the binary's defaults < MAICC_* environment <
 * --config file < --faults file < flags. The cross-field checks
 * (validateConfig) run once, after the last of these. Binaries
 * fetch their own extra flags with flag()/flagUint() and then call
 * finish(), which rejects any unrecognized --option so typos fail
 * loudly.
 *
 * Canonical usage:
 *
 *   SimConfig defaults;              // what this binary runs
 *   defaults.serving.seed = 7;
 *   cli::Options opt("bench_foo", argc, argv, defaults);
 *   unsigned reqs = unsigned(opt.flagUint("requests", 48));
 *   if (!opt.finish())        return opt.exitCode();
 *   if (opt.dumpConfigOnly()) return 0;
 *   ... run with opt.config ...
 *   if (!opt.writeStats(ctx)) return 1;
 */

#ifndef MAICC_COMMON_CLI_HH
#define MAICC_COMMON_CLI_HH

#include <cstdint>
#include <span>
#include <string>

#include "common/config.hh"

namespace maicc
{

class SimContext;

namespace cli
{

/** One common flag that sets one config field. */
struct ConfigFlag
{
    const char *name; ///< `--name=VALUE`
    const char *env;  ///< environment variable, or nullptr
    const char *path; ///< dotted config key, e.g. "serving.chips"
};

/** Every config-setting common flag, in usage order. */
std::span<const ConfigFlag> configFlags();

/**
 * Parsed common command-line flags plus the effective SimConfig
 * they produce. One instance per binary; see the file comment for
 * the flag set, precedence rules, and canonical usage.
 */
class Options
{
  public:
    /**
     * Start from @p defaults, then overlay the environment, the
     * config file and every common flag from @p argv (stripping
     * them). Errors (malformed value, unreadable config file) are
     * recorded, not thrown: check ok()/finish().
     */
    Options(std::string tool, int &argc, char **argv,
            SimConfig defaults = {});

    /** The effective configuration tree. */
    SimConfig config;

    /** Resolved host-thread count (== config.system.numThreads). */
    unsigned threads() const { return config.system.numThreads; }

    /** --trace=FILE / MAICC_TRACE; empty = tracing off. */
    const std::string &tracePath() const { return trace; }

    /** --stats-json=FILE; empty = no stats dump. */
    const std::string &statsPath() const { return statsJson; }

    /** Parse and strip a binary-specific `--name=value`. */
    std::string flag(const char *name, const std::string &def = "");

    /** flag() parsed as an unsigned integer. */
    uint64_t flagUint(const char *name, uint64_t def);

    /**
     * Call after all flag()/flagUint() fetches: reports the first
     * error or leftover unrecognized --option to stderr.
     * @param allow_extra leave unknown --options in argv instead
     *        of rejecting them (for binaries that hand the rest to
     *        another parser, e.g. google-benchmark).
     * @return true when the binary should proceed.
     */
    bool finish(bool allow_extra = false);

    /** Process exit code after a failed finish(). */
    int exitCode() const { return ok() ? 0 : 2; }

    bool ok() const { return error.empty(); }

    /**
     * True when --dump-config was given; prints the effective
     * config to stdout (once) so the caller can exit 0.
     */
    bool dumpConfigOnly();

    /**
     * When --stats-json was given, record every component of
     * @p ctx and write the registry dump. @return false (with a
     * message on stderr) only on an I/O failure.
     */
    bool writeStats(SimContext &ctx) const;

  private:
    std::string take(int &argc, char **argv, const char *name);
    void fail(const std::string &msg);

    std::string tool;
    int *argcp = nullptr;
    char **argv = nullptr;
    std::string trace;
    std::string statsJson;
    bool dumpConfig = false;
    bool hostTimers = false;
    std::string error;
};

} // namespace cli
} // namespace maicc

#endif // MAICC_COMMON_CLI_HH
