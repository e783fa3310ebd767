#include "sim/overrides.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#include <unistd.h>

#include "common/log.hh"
#include "mem/mem_placement_registry.hh"
#include "mem/mem_tiering_registry.hh"
#include "net/noc_registry.hh"
#include "workload/traffic.hh"

namespace cdcs
{

namespace
{

template <class T>
constexpr KnobType
knobTypeOf()
{
    if constexpr (std::is_same_v<T, int>)
        return KnobType::Int;
    else if constexpr (std::is_same_v<T, std::uint32_t>)
        return KnobType::U32;
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        return KnobType::U64;
    else if constexpr (std::is_same_v<T, double>)
        return KnobType::Double;
    else if constexpr (std::is_same_v<T, bool>)
        return KnobType::Bool;
    else if constexpr (std::is_same_v<T, std::string>)
        return KnobType::String;
    else {
        static_assert(std::is_enum_v<T>, "unsupported knob field type");
        return KnobType::Opaque;
    }
}

/** The path, type and accessor of a SystemConfig field, in one go. */
#define CDCS_FIELD(member)                                              \
    .path = #member,                                                    \
    .type = knobTypeOf<decltype(std::declval<SystemConfig &>().member)>(), \
    .field = +[](SystemConfig &c) -> void * { return &c.member; }

bool
oneOf(const std::string &value, const std::vector<std::string> &names,
      const char *what, std::string *err)
{
    if (std::find(names.begin(), names.end(), value) != names.end())
        return true;
    if (err != nullptr) {
        *err = std::string("unknown ") + what + " '" + value +
            "' (registered:";
        for (const std::string &n : names)
            *err += " " + n;
        *err += ")";
    }
    return false;
}

bool
checkNoc(const std::string &v, std::string *err)
{
    return oneOf(v, NocRegistry::instance().names(), "noc model", err);
}

bool
checkMemPlacement(const std::string &v, std::string *err)
{
    return oneOf(v, MemPlacementRegistry::instance().names(),
                 "mem placement policy", err);
}

bool
checkMemTiering(const std::string &v, std::string *err)
{
    return oneOf(v, MemTieringRegistry::names(), "mem tiering policy",
                 err);
}

bool
checkPlacementCost(const std::string &v, std::string *err)
{
    return oneOf(v, {"noc", "zero-load"}, "placement cost oracle", err);
}

bool
checkChurn(const std::string &v, std::string *err)
{
    return TrafficSchedule::parseChurn(v, nullptr, err);
}

constexpr const char *kReportingOnly =
    "reporting-only; never read by the simulation";

/**
 * Every knob. SystemConfig rows come first, in cache-key order; key
 * names match the struct fields except where a shorter name reads
 * better on the command line (epochAccesses, warmup, noc, stats).
 */
constexpr Knob kKnobs[] = {
    // ---- Platform (Table 2).
    {.name = "meshWidth", CDCS_FIELD(meshWidth), .range = {.lo = 1},
     .doc = "Mesh width in tiles."},
    {.name = "meshHeight", CDCS_FIELD(meshHeight), .range = {.lo = 1},
     .doc = "Mesh height in tiles."},
    {.name = "banksPerTile", CDCS_FIELD(banksPerTile),
     .range = {.lo = 1}, .doc = "LLC banks per tile."},
    {.name = "bankLines", CDCS_FIELD(bankLines), .range = {.lo = 1},
     .doc = "Lines per LLC bank."},
    {.name = "bankWays", CDCS_FIELD(bankWays), .range = {.lo = 1},
     .doc = "LLC bank associativity."},
    {.name = "bankLatency", CDCS_FIELD(bankLatency),
     .doc = "Bank access latency (cycles)."},
    {.name = "memLatency", CDCS_FIELD(memLatency),
     .doc = "Memory access latency (cycles)."},
    {.name = "routerCycles", CDCS_FIELD(noc.routerCycles),
     .doc = "Per-hop router traversal (cycles)."},
    {.name = "linkCycles", CDCS_FIELD(noc.linkCycles),
     .doc = "Per-hop link traversal (cycles)."},
    {CDCS_FIELD(noc.flitBits), .doc = "NoC flit width (bits)."},
    {CDCS_FIELD(noc.headerBits), .doc = "NoC message header (bits)."},
    {.name = "noc", CDCS_FIELD(nocModel), .check = checkNoc,
     .doc = "Network model (NocRegistry name)."},
    {.name = "nocInjScale", CDCS_FIELD(nocInjScale),
     .range = {.loOpen = true},
     .doc = "Contention model: injection-rate scale."},
    {.name = "nocMaxUtil", CDCS_FIELD(nocMaxUtil),
     .range = {.hi = 1, .loOpen = true, .hiOpen = true},
     .doc = "Contention model: utilization clamp."},
    {.name = "placementCost", CDCS_FIELD(placementCost),
     .check = checkPlacementCost,
     .doc = "Placement cost oracle: noc or zero-load."},
    {.name = "modelMemBandwidth", CDCS_FIELD(modelMemBandwidth),
     .doc = "Model memory queueing."},
    {.name = "memLinesPerCycle", CDCS_FIELD(memLinesPerCycle),
     .doc = "Aggregate memory service rate (lines/cycle)."},
    {.name = "memChannels", CDCS_FIELD(memChannels), .range = {.lo = 1},
     .doc = "Memory channels (edge controllers)."},
    {.name = "memPlacement", CDCS_FIELD(memPlacement),
     .check = checkMemPlacement,
     .doc = "Page-to-controller placement (MemPlacementRegistry name)."},

    // ---- Far-memory tier.
    {.name = "farMemRatio", CDCS_FIELD(farMemRatio),
     .range = {.hi = 1, .hiOpen = true},
     .doc = "Fraction of pages in the far tier; 0 disables it."},
    {.name = "farMemLatency", CDCS_FIELD(farMemLatency),
     .doc = "Far-tier access latency (cycles)."},
    {.name = "farMemChannels", CDCS_FIELD(farMemChannels),
     .range = {.lo = 1}, .doc = "Far-tier channel count."},
    {.name = "farMemLinesPerCycle", CDCS_FIELD(farMemLinesPerCycle),
     .range = {.loOpen = true},
     .doc = "Far-tier service rate (lines/cycle)."},
    {.name = "memTiering", CDCS_FIELD(memTiering),
     .check = checkMemTiering,
     .doc = "Capacity-tiering policy (MemTieringRegistry name)."},

    // ---- Dynamic traffic.
    {.name = "skewAlpha", CDCS_FIELD(skewAlpha),
     .doc = "Zipf skew of the hot-object overlay; 0 disables it."},
    {.name = "skewFraction", CDCS_FIELD(skewFraction),
     .range = {.hi = 1}, .doc = "Share of accesses sent to the overlay."},
    // Bounded so overlay lines stay inside the global VC's 2^40-line
    // range and the hot-set table stays a small allocation.
    {.name = "skewLines", CDCS_FIELD(skewLines),
     .range = {.lo = 1, .hi = 0x1p32},
     .doc = "Overlay footprint (lines)."},
    {.name = "skewHotLines", CDCS_FIELD(skewHotLines),
     .range = {.lo = 1, .hi = 0x1p24},
     .doc = "Hottest ranks in the drifting table."},
    {.name = "skewPageHot", CDCS_FIELD(skewPageHot),
     .doc = "Seat the hot-set table page-aligned."},
    {.name = "skewDriftEpochs", CDCS_FIELD(skewDriftEpochs),
     .doc = "Re-seat the hot set every N epochs; 0 = static."},
    {.name = "skewDriftFraction", CDCS_FIELD(skewDriftFraction),
     .range = {.hi = 1, .loOpen = true},
     .doc = "Fraction of the hot set re-seated per drift."},
    {.name = "churn", CDCS_FIELD(churn), .check = checkChurn,
     .doc = "Thread churn schedule (epoch:-k,epoch:+k)."},

    // ---- Observability.
    {.name = "stats", CDCS_FIELD(statsFilter), .unkeyed = kReportingOnly,
     .doc = "Stats sampled into the metrics trace (1/all or prefixes)."},
    {.name = "statsEvery", CDCS_FIELD(statsEvery), .range = {.lo = 1},
     .unkeyed = kReportingOnly, .doc = "Sample stats every N epochs."},

    // ---- Methodology.
    {.name = "epochAccesses", CDCS_FIELD(accessesPerThreadEpoch),
     .env = "CDCS_EPOCH_ACCESSES",
     .doc = "LLC accesses per thread per epoch."},
    {.name = "epochs", CDCS_FIELD(epochs), .env = "CDCS_EPOCHS",
     .doc = "Total epochs per run."},
    {.name = "warmup", CDCS_FIELD(warmupEpochs), .env = "CDCS_WARMUP",
     .doc = "Epochs discarded before measurement."},
    {.name = "chunkAccesses", CDCS_FIELD(chunkAccesses),
     .range = {.lo = 1}, .doc = "Accesses per scheduling chunk."},
    {CDCS_FIELD(moveCfg.moves),
     .unkeyed = "overwritten by SchemeSpec::moves when the policy is "
                "built; keyed in the spec: section",
     .doc = "Data-movement scheme (set through the SchemeSpec)."},
    {.name = "walkCyclesPerSet", CDCS_FIELD(moveCfg.walkCyclesPerSet),
     .doc = "Background walker cycles per set."},
    {.name = "walkDelay", CDCS_FIELD(moveCfg.walkDelay),
     .doc = "Background walker start delay (cycles)."},
    {.name = "bulkCyclesPerSet", CDCS_FIELD(moveCfg.bulkCyclesPerSet),
     .doc = "Bulk-invalidation cycles per set."},
    {.name = "allocHysteresis", CDCS_FIELD(moveCfg.allocHysteresis),
     .doc = "Allocation hysteresis (fraction of a VC's size)."},
    {.name = "traceIpc", CDCS_FIELD(traceIpc),
     .doc = "Record the aggregate-IPC trace."},
    {.name = "traceBinCycles", CDCS_FIELD(traceBinCycles),
     .range = {.lo = 1}, .env = "CDCS_TRACE_BIN",
     .doc = "IPC trace bin (cycles)."},
    {.name = "seed", CDCS_FIELD(seed), .doc = "Platform RNG seed."},
    {.name = "allocGranuleLines", CDCS_FIELD(allocGranuleLines),
     .doc = "Runtime allocation granule (lines)."},
    {.name = "monitorSmoothing", CDCS_FIELD(monitorSmoothing),
     .doc = "EWMA factor of the monitor inputs."},

    // ---- Study knobs (read with Overrides::knob/strKnob).
    {.name = "mixes", .range = {.hi = INT_MAX}, .env = "CDCS_MIXES",
     .unkeyed = "selects how many mixes a study sweeps; each run is "
                "keyed by its own MixSpec",
     .doc = "Workload mixes swept."},
    {.name = "workers", .range = {.hi = INT_MAX}, .env = "CDCS_WORKERS",
     .unkeyed = "parallelism only; sweeps are bit-identical across "
                "worker counts",
     .doc = "Pool worker threads; 0 = hardware threads."},
    {.name = "apps", .range = {.hi = INT_MAX}, .env = "CDCS_APPS",
     .unkeyed = "app count handed to MixSpec, which is keyed",
     .doc = "Bank-granularity study app count."},
    {.name = "saIters", .range = {.hi = INT_MAX},
     .env = "CDCS_SA_ITERS",
     .unkeyed = "mapped into SchemeSpec::saIterations, which is keyed",
     .doc = "Simulated-annealing comparator iterations."},
    {.name = "table3Iters", .range = {.hi = INT_MAX},
     .env = "CDCS_TABLE3_ITERS",
     .unkeyed = "repetitions of a wall-clock benchmark; reporting-only",
     .doc = "Table 3 invocations per combination."},
    {.name = "cacheDir", .type = KnobType::String,
     .env = "CDCS_CACHE_DIR", .unkeyed = "store location; plumbing only",
     .doc = "Persistent result-store directory."},
    {.name = "cacheStats", .type = KnobType::Bool,
     .env = "CDCS_CACHE_STATS", .unkeyed = kReportingOnly,
     .doc = "Print the cache/store footers."},
    {.name = "timing", .type = KnobType::Bool, .env = "CDCS_TIMING",
     .unkeyed = kReportingOnly, .doc = "Print the phase-timing footer."},
    {.name = "trace", .type = KnobType::String, .env = "CDCS_TRACE",
     .unkeyed = kReportingOnly,
     .doc = "Chrome trace-event output file."},
    {.name = "jsonDir", .type = KnobType::String,
     .env = "CDCS_JSON_DIR", .unkeyed = kReportingOnly,
     .doc = "Directory for JSON artifacts."},
};

#undef CDCS_FIELD

bool
parseBool(const std::string &text, std::uint64_t *out)
{
    for (const char *yes : {"1", "true", "yes", "on"}) {
        if (text == yes) {
            *out = 1;
            return true;
        }
    }
    for (const char *no : {"0", "false", "no", "off"}) {
        if (text == no) {
            *out = 0;
            return true;
        }
    }
    return false;
}

/** Largest value the field's storage holds. */
double
storageMax(KnobType type)
{
    switch (type) {
      case KnobType::Int:
        return INT_MAX;
      case KnobType::U32:
        return UINT32_MAX;
      default:
        return std::numeric_limits<double>::infinity();
    }
}

/** "minimum 1", "must be < 1" and the like. */
std::string
bound(const char *what, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %.10g", what, value);
    return buf;
}

/**
 * Parse `e.value` as knob `k` into `e`. Strict: no whitespace, stray
 * suffixes, overflow or non-finite values (strtoull alone would skip
 * whitespace and wrap "-5" to 2^64-5).
 */
bool
parseValue(const Knob &k, Override &e, std::string *err)
{
    const std::string &text = e.value;
    const auto bad = [&](const std::string &why) {
        if (err != nullptr)
            *err = "bad value '" + text + "' for " + e.key + " (" +
                why + ")";
        return false;
    };
    const std::string expected =
        std::string("expected ") + knobTypeName(k.type);
    const char first = text.empty() ? '\0' : text[0];
    const bool digit = std::isdigit(static_cast<unsigned char>(first));
    char *end = nullptr;
    double num = 0.0;
    errno = 0;
    switch (k.type) {
      case KnobType::String:
        return k.check == nullptr || k.check(text, err);
      case KnobType::Bool:
        return parseBool(text, &e.u) || bad(expected);
      case KnobType::Int:
        if (!digit && first != '-')
            return bad(expected);
        e.i = std::strtoll(text.c_str(), &end, 10);
        num = static_cast<double>(e.i);
        break;
      case KnobType::U32:
      case KnobType::U64:
        if (!digit)
            return bad(expected);
        e.u = std::strtoull(text.c_str(), &end, 10);
        num = static_cast<double>(e.u);
        break;
      case KnobType::Double:
        if (!digit && first != '-' && first != '+' && first != '.')
            return bad(expected);
        e.d = std::strtod(text.c_str(), &end);
        num = e.d;
        break;
      case KnobType::Opaque:
        return bad("not settable");
    }
    if (*end != '\0' || errno == ERANGE || !std::isfinite(num))
        return bad(expected);
    const KnobRange &r = k.range;
    const double hi = std::min(r.hi, storageMax(k.type));
    if (num < r.lo || (r.loOpen && num == r.lo))
        return bad(bound(r.loOpen ? "must be >" : "minimum", r.lo));
    if (num > hi || (r.hiOpen && num == hi))
        return bad(bound(r.hiOpen ? "must be <" : "maximum", hi));
    return true;
}

/** Write a parsed value into its field. */
void
store(const Knob &k, SystemConfig &cfg, const Override &v)
{
    void *p = k.field(cfg);
    switch (k.type) {
      case KnobType::Int:
        *static_cast<int *>(p) = static_cast<int>(v.i);
        break;
      case KnobType::U32:
        *static_cast<std::uint32_t *>(p) =
            static_cast<std::uint32_t>(v.u);
        break;
      case KnobType::U64:
        *static_cast<std::uint64_t *>(p) = v.u;
        break;
      case KnobType::Double:
        *static_cast<double *>(p) = v.d;
        break;
      case KnobType::Bool:
        *static_cast<bool *>(p) = v.u != 0;
        break;
      case KnobType::String:
        *static_cast<std::string *>(p) = v.value;
        break;
      case KnobType::Opaque:
        panic("opaque knob fields are not settable");
    }
}

void
applyAll(const std::vector<Override> &layer, SystemConfig &cfg)
{
    for (const Override &entry : layer) {
        const Knob *k = findKnob(entry.key);
        cdcs_assert(k != nullptr, "unvalidated override entry");
        if (k->field != nullptr)
            store(*k, cfg, entry);
    }
}

} // anonymous namespace

std::span<const Knob>
knobTable()
{
    return kKnobs;
}

const Knob *
findKnob(const std::string &name)
{
    for (const Knob &k : kKnobs) {
        if (k.name != nullptr && name == k.name)
            return &k;
    }
    return nullptr;
}

const char *
knobTypeName(KnobType type)
{
    switch (type) {
      case KnobType::Int:
        return "int";
      case KnobType::U32:
      case KnobType::U64:
        return "uint";
      case KnobType::Double:
        return "double";
      case KnobType::Bool:
        return "bool";
      case KnobType::String:
        return "string";
      case KnobType::Opaque:
        break;
    }
    return "opaque";
}

void
appendConfigKey(std::string &key, const SystemConfig &cfg)
{
    // The accessors hand out mutable pointers; this only reads.
    SystemConfig &c = const_cast<SystemConfig &>(cfg);
    const auto put = [&key](const char *fmt, auto value) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), fmt, value);
        key += buf;
    };
    key += "cfg:";
    for (const Knob &k : kKnobs) {
        if (k.field == nullptr || k.unkeyed != nullptr)
            continue;
        const void *p = k.field(c);
        switch (k.type) {
          case KnobType::Int:
            put("%d,", *static_cast<const int *>(p));
            break;
          case KnobType::U32:
            put("%" PRIu32 ",", *static_cast<const std::uint32_t *>(p));
            break;
          case KnobType::U64:
            put("%" PRIu64 ",", *static_cast<const std::uint64_t *>(p));
            break;
          case KnobType::Double:
            put("%.17g,", *static_cast<const double *>(p));
            break;
          case KnobType::Bool:
            put("%d,", *static_cast<const bool *>(p) ? 1 : 0);
            break;
          case KnobType::String: {
            // Length-prefixed: churn schedules contain commas.
            const std::string &s = *static_cast<const std::string *>(p);
            put("%zu:", s.size());
            key += s;
            key += ',';
            break;
          }
          case KnobType::Opaque:
            panic("opaque knob fields cannot be keyed");
        }
    }
    key += '|';
}

bool
validate(const SystemConfig &cfg, std::string *err)
{
    char buf[160];
    if (cfg.warmupEpochs >= cfg.epochs) {
        std::snprintf(buf, sizeof(buf),
                      "warmup (%d) must be below epochs (%d): no "
                      "epoch would be measured",
                      cfg.warmupEpochs, cfg.epochs);
        *err = buf;
        return false;
    }
    const std::uint64_t sets =
        cfg.bankWays > 0 && cfg.bankLines % cfg.bankWays == 0
        ? cfg.bankLines / cfg.bankWays
        : 0;
    if (sets == 0 || (sets & (sets - 1)) != 0) {
        std::snprintf(buf, sizeof(buf),
                      "bankLines (%" PRIu64 ") / bankWays (%" PRIu32
                      ") must be a whole power-of-two set count",
                      cfg.bankLines, cfg.bankWays);
        *err = buf;
        return false;
    }
    return true;
}

bool
Overrides::add(const std::string &kv, std::string *err)
{
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
        if (err != nullptr)
            *err = "malformed override '" + kv +
                "' (expected key=value)";
        return false;
    }
    Override entry{kv.substr(0, eq), kv.substr(eq + 1)};
    const Knob *k = findKnob(entry.key);
    if (k == nullptr) {
        if (err != nullptr)
            *err = "unknown override key '" + entry.key + "'";
        return false;
    }
    if (!parseValue(*k, entry, err))
        return false;
    entries.push_back(std::move(entry));
    return true;
}

bool
Overrides::loadEnv(std::string *err)
{
    envEntries.clear();
    // A CDCS_* name outside the table is a typo or a retired knob;
    // dropping it would run a config the caller did not ask for.
    for (char **var = environ; *var != nullptr; var++) {
        const std::string name(*var, std::strcspn(*var, "="));
        const auto reads = [&](const Knob &k) {
            return k.env != nullptr && name == k.env;
        };
        if (name.starts_with("CDCS_") &&
            std::none_of(std::begin(kKnobs), std::end(kKnobs), reads)) {
            if (err != nullptr)
                *err = "unknown environment variable " + name +
                    " (no knob reads it; see cdcs_studies help)";
            return false;
        }
    }
    for (const Knob &k : kKnobs) {
        const char *value = k.env != nullptr ? std::getenv(k.env)
                                             : nullptr;
        if (value == nullptr || *value == '\0')
            continue;
        Override entry{k.name, value};
        if (!parseValue(k, entry, err)) {
            if (err != nullptr)
                *err = std::string(k.env) + ": " + *err;
            return false;
        }
        envEntries.push_back(std::move(entry));
    }
    return true;
}

void
Overrides::applyEnv(SystemConfig &cfg) const
{
    applyAll(envEntries, cfg);
}

void
Overrides::apply(SystemConfig &cfg) const
{
    applyAll(entries, cfg);
}

const Override *
Overrides::lookup(const char *key) const
{
    const Knob *k = findKnob(key);
    cdcs_assert(k != nullptr && k->field == nullptr,
                "not a study knob");
    // `--set` beats the environment; within a layer the last wins.
    for (const std::vector<Override> *layer : {&entries, &envEntries}) {
        for (auto it = layer->rbegin(); it != layer->rend(); ++it) {
            if (it->key == key)
                return &*it;
        }
    }
    return nullptr;
}

std::uint64_t
Overrides::knob(const char *key, std::uint64_t fallback) const
{
    const Override *found = lookup(key);
    return found != nullptr ? found->u : fallback;
}

std::string
Overrides::strKnob(const char *key, const std::string &fallback) const
{
    const Override *found = lookup(key);
    return found != nullptr ? found->value : fallback;
}

} // namespace cdcs
