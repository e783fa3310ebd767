/**
 * @file
 * The knob table and the typed `key=value` overrides built on it.
 *
 * Every SystemConfig field (nested structs expanded) and every study
 * knob is declared once, as a Knob row in overrides.cc: its `--set`
 * name, the field it writes, its type and range, an optional
 * registry/grammar check, its CDCS_* environment name, whether it is
 * part of the result-cache key (or why not) and a one-line doc.
 * Parsing, environment resolution, the cache key's SystemConfig part,
 * `cdcs_studies help` and the doc-sync test are all loops over that
 * table, so adding a knob means a field, a row and an EXPERIMENTS.md
 * line.
 */

#ifndef CDCS_SIM_OVERRIDES_HH
#define CDCS_SIM_OVERRIDES_HH

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "sim/system_config.hh"

namespace cdcs
{

/** Storage type of a knob's value. */
enum class KnobType : std::uint8_t
{
    Int,
    U32,
    U64,
    Double,
    Bool,
    String,
    Opaque ///< Enum fields only code sets (never parsed or keyed).
};

/** Numeric range; each end is closed unless marked open. */
struct KnobRange
{
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
    bool loOpen = false;
    bool hiOpen = false;
};

/** One row of the knob table. */
struct Knob
{
    /** `--set` name; nullptr for fields only code sets. */
    const char *name = nullptr;
    /** Field path ("noc.routerCycles"); nullptr for study knobs. */
    const char *path = nullptr;
    KnobType type = KnobType::U64;
    /** The field inside a config; nullptr for study knobs. */
    void *(*field)(SystemConfig &) = nullptr;
    KnobRange range = {};
    /** Extra check of a string value (registry name, grammar). */
    bool (*check)(const std::string &value, std::string *err) = nullptr;
    /** CDCS_* environment variable that sets the knob, if any. */
    const char *env = nullptr;
    /** Why the knob is not in the result-cache key; nullptr = keyed. */
    const char *unkeyed = nullptr;
    const char *doc = "";
};

/** Every knob, in cache-key order. */
std::span<const Knob> knobTable();

/** The row with `--set` name `name`, or nullptr. */
const Knob *findKnob(const std::string &name);

/** "int", "uint", "double", "bool" or "string". */
const char *knobTypeName(KnobType type);

/** Append the keyed SystemConfig fields to a result-cache key. */
void appendConfigKey(std::string &key, const SystemConfig &cfg);

/**
 * Cross-field checks a config must pass before any job runs: warmup
 * below the epoch count and a power-of-two set count per bank.
 * Returns false with a one-line message in `*err`.
 */
bool validate(const SystemConfig &cfg, std::string *err);

/** One parsed `key=value` pair (later entries win). */
struct Override
{
    std::string key;
    std::string value; ///< Raw text (string knobs).
    /** Parsed value: `i` (int), `u` (uint, bool 0/1) or `d` (double). */
    long long i = 0;
    std::uint64_t u = 0;
    double d = 0.0;
};

/**
 * The knob values of one invocation, in two layers: CDCS_* environment
 * values (loadEnv) below `--set` values (add).
 */
class Overrides
{
  public:
    /**
     * Parse one `key=value` string. Returns false (with a message in
     * `*err`) when the input is malformed, the key is unknown, or
     * the value does not parse as the key's type or fails its range
     * or check.
     */
    bool add(const std::string &kv, std::string *err);

    /**
     * Read every knob's CDCS_* variable through the same parser as
     * add(). Empty variables count as unset. Returns false (with the
     * variable named in `*err`) on a CDCS_* variable no knob reads or
     * on the first bad value.
     */
    bool loadEnv(std::string *err);

    /** Apply the environment layer's SystemConfig knobs to `cfg`. */
    void applyEnv(SystemConfig &cfg) const;

    /** Apply the `--set` layer's SystemConfig knobs to `cfg`. */
    void apply(SystemConfig &cfg) const;

    /** Integer or bool study knob: `--set`, else env, else `fallback`. */
    std::uint64_t knob(const char *key, std::uint64_t fallback) const;

    /** String study knob with the same precedence. */
    std::string strKnob(const char *key,
                        const std::string &fallback) const;

    bool empty() const { return entries.empty(); }

  private:
    const Override *lookup(const char *key) const;

    std::vector<Override> envEntries;
    std::vector<Override> entries;
};

} // namespace cdcs

#endif // CDCS_SIM_OVERRIDES_HH
