/**
 * @file
 * JSON binding for the whole configuration tree: one SimConfig
 * holds everything a binary can be configured with — the
 * system-level SystemConfig (with its nested ArrayGeometry /
 * NocConfig / DramConfig / CacheConfig), the single-node
 * CoreConfig, and the serving-layer knobs — and round-trips
 * through JSON losslessly: load → dump → load is identical, and
 * dumping the defaults produces the documented schema
 * (DESIGN.md §12).
 *
 * Each config struct has exactly one field list in config.cc: key,
 * member and accepted range, in dump order. The JSON writer, the
 * strict reader, the command-line rows (cli.hh) and configFields()
 * all walk those lists, and enum fields use their enum's one
 * spelling table (common/enum_names.hh).
 *
 * Reading is *strict about keys, types and ranges* (an unknown key,
 * a wrong type or an out-of-range value is an error naming its
 * path) and *lenient about presence* (a missing key keeps its
 * current value), so a config file can state only what it
 * overrides. Cross-field checks (validateConfig) run once, after
 * the last overlay.
 *
 * This lives in common/ next to json/cli: the bound structs are
 * all header-only aggregates, so the binding needs their headers
 * but links against nothing outside maicc_common.
 */

#ifndef MAICC_COMMON_CONFIG_HH
#define MAICC_COMMON_CONFIG_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/core_config.hh"
#include "runtime/serving.hh"
#include "runtime/system.hh"

namespace maicc
{

/** Everything configurable, as one tree. */
struct SimConfig
{
    SystemConfig system;
    CoreConfig core;

    /**
     * Serving knobs; serving.system is kept identical to
     * `system` (it is not serialized separately).
     */
    ServingConfig serving;
};

/** The --dump-config document: every field, in field-list order. */
Json toJson(const SimConfig &c);

/** The `system` subtree alone (the timing-cache key, sim_cache.cc). */
Json toJson(const SystemConfig &c);

/**
 * Overlay document @p j onto @p out. Missing keys keep their
 * values; an unknown key, a type mismatch or a value outside its
 * field's range fails with a `path: expected ...` message in
 * @p err. No cross-field checks: see validateConfig.
 */
bool overlayConfig(const Json &j, SimConfig &out, std::string *err);

/**
 * Overlay a standalone FaultConfig document (the `--faults=FILE`
 * payload) onto @p out, with paths rooted at "faults".
 */
bool overlayFaults(const Json &j, FaultConfig &out, std::string *err);

/**
 * Set the field at dotted @p path ("serving.chips") from
 * command-line or environment @p text, through the same reader as
 * a config file: text that parses as JSON is that value, anything
 * else is a string (an enum spelling, or a type error). The error
 * is a config file's `path: expected ...` with @p where (the flag
 * or variable) in place of the path.
 */
bool setConfigField(SimConfig &out, const std::string &path,
                    const std::string &text, const std::string &where,
                    std::string *err);

/**
 * The cross-field checks no single field can make — the fault
 * schedule against the chip and DRAM-channel counts, the compute
 * region inside the mesh, the NoC the size of the mesh, the core
 * budget inside the compute region, the LLC shape — then copies
 * `system` into
 * `serving.system`. Run once, after the last overlay.
 */
bool validateConfig(SimConfig &cfg, std::string *err);

/**
 * Parse the JSON document in file @p path ("-" reads stdin);
 * @p what names the file in the "cannot open" error.
 */
bool readJsonFile(const std::string &path, const char *what, Json &out,
                  std::string *err);

/** Pretty-print the full tree (the --dump-config output). */
void dumpConfig(std::ostream &os, const SimConfig &cfg);

/** One leaf field of the schema, as the field lists declare it. */
struct ConfigField
{
    /** Dotted key; an array element's fields sit under "key[]". */
    std::string path;

    /** Bool, Int, Double, or String (an enum). */
    Json::Type type = Json::Type::Null;

    /** Accepted range, inclusive (numeric fields only). */
    Json lo, hi;

    /** The reader's message for a bad value: "expected ...". */
    std::string expected;

    /** Accepted spellings (enum fields only). */
    std::vector<std::string> names;
};

/** Every leaf field of SimConfig, in dump order. */
std::vector<ConfigField> configFields();

} // namespace maicc

#endif // MAICC_COMMON_CONFIG_HH
