/**
 * @file
 * Tests for the knob table and the overrides built on it: good and
 * bad keys, type and range errors, last-one-wins ordering, the
 * environment layer below `--set`, cross-field validation, cache-key
 * coverage of every keyed field, and a seeded random-input loop over
 * every user-facing parser.
 */

#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/experiment.hh"
#include "sim/overrides.hh"
#include "sim/study.hh"
#include "workload/traffic.hh"

namespace cdcs
{
namespace
{

TEST(OverridesTest, AppliesTypedConfigKeys)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("meshWidth=16", &err)) << err;
    ASSERT_TRUE(ov.add("bankLines=4096", &err)) << err;
    ASSERT_TRUE(ov.add("monitorSmoothing=0.25", &err)) << err;
    ASSERT_TRUE(ov.add("modelMemBandwidth=false", &err)) << err;
    ASSERT_TRUE(ov.add("epochAccesses=12345", &err)) << err;
    ASSERT_TRUE(ov.add("warmup=1", &err)) << err;
    ASSERT_TRUE(ov.add("seed=99", &err)) << err;
    ASSERT_TRUE(ov.add("routerCycles=5", &err)) << err;

    SystemConfig cfg;
    ov.apply(cfg);
    EXPECT_EQ(cfg.meshWidth, 16);
    EXPECT_EQ(cfg.bankLines, 4096u);
    EXPECT_DOUBLE_EQ(cfg.monitorSmoothing, 0.25);
    EXPECT_FALSE(cfg.modelMemBandwidth);
    EXPECT_EQ(cfg.accessesPerThreadEpoch, 12345u);
    EXPECT_EQ(cfg.warmupEpochs, 1);
    EXPECT_EQ(cfg.seed, 99u);
    EXPECT_EQ(cfg.noc.routerCycles, 5u);
    // Untouched fields keep their defaults.
    EXPECT_EQ(cfg.meshHeight, SystemConfig{}.meshHeight);
}

TEST(OverridesTest, RejectsUnknownKeys)
{
    Overrides ov;
    std::string err;
    EXPECT_FALSE(ov.add("notAKey=3", &err));
    EXPECT_NE(err.find("notAKey"), std::string::npos);
    // Retired alias of memPlacement=first-touch.
    EXPECT_FALSE(ov.add("numaAwareMem=1", &err));
}

TEST(OverridesTest, RejectsMalformedInput)
{
    Overrides ov;
    std::string err;
    EXPECT_FALSE(ov.add("meshWidth", &err));
    EXPECT_FALSE(ov.add("=3", &err));
}

TEST(OverridesTest, RejectsTypeMismatches)
{
    Overrides ov;
    std::string err;
    EXPECT_FALSE(ov.add("meshWidth=abc", &err));
    EXPECT_NE(err.find("meshWidth"), std::string::npos);
    EXPECT_FALSE(ov.add("monitorSmoothing=fast", &err));
    EXPECT_FALSE(ov.add("traceIpc=maybe", &err));
    EXPECT_FALSE(ov.add("bankLines=-5", &err));
    EXPECT_FALSE(ov.add("meshWidth=", &err));
    // Whitespace must not smuggle a sign past the uint guard
    // (strtoull skips it and wraps negatives to near-2^64).
    EXPECT_FALSE(ov.add("bankLines= -5", &err));
    EXPECT_FALSE(ov.add("bankLines= 5", &err));
    EXPECT_FALSE(ov.add("epochs= 3", &err));
    EXPECT_FALSE(ov.add("bankLines=5x", &err));
    // Overflow and non-finite values.
    EXPECT_FALSE(ov.add("seed=99999999999999999999", &err));
    EXPECT_FALSE(ov.add("meshWidth=2147483648", &err));
    EXPECT_FALSE(ov.add("bankWays=4294967296", &err));
    EXPECT_FALSE(ov.add("skewAlpha=1e999", &err));
    EXPECT_FALSE(ov.add("skewAlpha=-nan", &err));
    // Range floors reject values that would only panic deep inside
    // the simulator (zero-sized mesh, negative epoch counts).
    EXPECT_FALSE(ov.add("meshWidth=0", &err));
    EXPECT_NE(err.find("minimum"), std::string::npos);
    EXPECT_FALSE(ov.add("bankWays=0", &err));
    EXPECT_FALSE(ov.add("epochs=-1", &err));
    EXPECT_FALSE(ov.add("nocMaxUtil=1", &err));
    EXPECT_FALSE(ov.add("farMemRatio=1", &err));
    EXPECT_FALSE(ov.add("skewDriftFraction=0", &err));
    EXPECT_TRUE(ov.add("skewFraction=1", &err)) << err;
    EXPECT_TRUE(ov.add("epochs=0", &err)) << err;   // Degenerate OK.
    EXPECT_TRUE(ov.add("warmup=0", &err)) << err;
    EXPECT_TRUE(ov.add("epochAccesses=0", &err)) << err;
    // Nothing half-applied: the config stays at defaults.
    SystemConfig cfg;
    ov.apply(cfg);
    EXPECT_EQ(cfg.meshWidth, SystemConfig{}.meshWidth);
}

TEST(OverridesTest, OverlayKnobsAreBounded)
{
    // skewLines above 2^32 would let overlay lines alias into other
    // VCs' address ranges, and skewHotLines sizes a table allocated
    // up front; both bounds hold through the shared parser.
    Overrides ov;
    std::string err;
    EXPECT_TRUE(ov.add("skewLines=4294967296", &err)) << err;
    EXPECT_TRUE(ov.add("skewHotLines=16777216", &err)) << err;
    EXPECT_FALSE(ov.add("skewLines=4294967297", &err));
    EXPECT_NE(err.find("maximum 4294967296"), std::string::npos) << err;
    EXPECT_FALSE(ov.add("skewHotLines=16777217", &err));
    EXPECT_NE(err.find("maximum 16777216"), std::string::npos) << err;
    EXPECT_FALSE(ov.add("skewLines=8796093022208", &err)); // 2^43
}

TEST(OverridesTest, LastValueWins)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("meshWidth=8", &err));
    ASSERT_TRUE(ov.add("meshWidth=12", &err));
    SystemConfig cfg;
    ov.apply(cfg);
    EXPECT_EQ(cfg.meshWidth, 12);
}

TEST(OverridesTest, BoolKnobAcceptsWordForms)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("timing=true", &err)) << err;
    EXPECT_EQ(ov.knob("timing", 0), 1u);
}

TEST(OverridesEnvTest, EnvironmentSitsBetweenDefaultAndSet)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.loadEnv(&err)) << err;
    EXPECT_EQ(ov.knob("mixes", 4), 4u);

    ::setenv("CDCS_MIXES", "7", 1);
    ::setenv("CDCS_JSON_DIR", "/from/env", 1);
    ASSERT_TRUE(ov.loadEnv(&err)) << err;
    ::unsetenv("CDCS_MIXES");
    ::unsetenv("CDCS_JSON_DIR");
    EXPECT_EQ(ov.knob("mixes", 4), 7u);
    EXPECT_EQ(ov.strKnob("jsonDir", "dflt"), "/from/env");

    ASSERT_TRUE(ov.add("mixes=9", &err));
    ASSERT_TRUE(ov.add("jsonDir=/from/set", &err));
    EXPECT_EQ(ov.knob("mixes", 4), 9u);
    EXPECT_EQ(ov.strKnob("jsonDir", "dflt"), "/from/set");
}

TEST(OverridesEnvTest, ConfigKnobsComeFromTheirEnvColumn)
{
    ::setenv("CDCS_EPOCH_ACCESSES", "1234", 1);
    ::setenv("CDCS_EPOCHS", "3", 1);
    ::setenv("CDCS_WARMUP", "", 1); // Empty counts as unset.
    ::setenv("CDCS_TRACE_BIN", "10000", 1);
    Overrides ov;
    std::string err;
    const bool ok = ov.loadEnv(&err);
    ::unsetenv("CDCS_EPOCH_ACCESSES");
    ::unsetenv("CDCS_EPOCHS");
    ::unsetenv("CDCS_WARMUP");
    ::unsetenv("CDCS_TRACE_BIN");
    ASSERT_TRUE(ok) << err;

    SystemConfig cfg = benchConfig();
    ov.applyEnv(cfg);
    EXPECT_EQ(cfg.accessesPerThreadEpoch, 1234u);
    EXPECT_EQ(cfg.epochs, 3);
    EXPECT_EQ(cfg.warmupEpochs, benchConfig().warmupEpochs);
    EXPECT_EQ(cfg.traceBinCycles, 10000u);

    // `--set` is a separate, higher layer.
    ASSERT_TRUE(ov.add("epochs=5", &err)) << err;
    ov.apply(cfg);
    EXPECT_EQ(cfg.epochs, 5);
}

TEST(OverridesEnvTest, BadEnvironmentValuesAreRejected)
{
    for (const auto &[name, value] :
         std::vector<std::pair<const char *, const char *>>{
             {"CDCS_EPOCHS", "abc"},
             {"CDCS_MIXES", "-1"},
             {"CDCS_WORKERS", "4 "},
             {"CDCS_TIMING", "maybe"}}) {
        ::setenv(name, value, 1);
        Overrides ov;
        std::string err;
        EXPECT_FALSE(ov.loadEnv(&err)) << name << "=" << value;
        EXPECT_NE(err.find(name), std::string::npos) << err;
        ::unsetenv(name);
    }
}

TEST(OverridesEnvTest, UnknownCdcsVariablesAreRejected)
{
    // A retired knob's variable, and a misspelled one, must not be
    // dropped without a word while --set rejects the same key.
    for (const char *name : {"CDCS_CACHE_BUDGET", "CDCS_EPOCH"}) {
        ::setenv(name, "3", 1);
        Overrides ov;
        std::string err;
        EXPECT_FALSE(ov.loadEnv(&err)) << name;
        EXPECT_NE(err.find(name), std::string::npos) << err;
        ::unsetenv(name);
    }
    // Other prefixes are not ours to police.
    ::setenv("CDCSX_OTHER", "1", 1);
    Overrides ov;
    std::string err;
    EXPECT_TRUE(ov.loadEnv(&err)) << err;
    ::unsetenv("CDCSX_OTHER");
}

TEST(ValidateTest, RejectsBankGeometryWithoutPowerOfTwoSets)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("bankLines=1000", &err)) << err;
    SystemConfig cfg = benchConfig();
    ov.apply(cfg);
    EXPECT_FALSE(validate(cfg, &err));
    EXPECT_NE(err.find("bankLines"), std::string::npos) << err;

    cfg.bankLines = 8; // Fewer lines than ways: zero sets.
    EXPECT_FALSE(validate(cfg, &err));
    cfg.bankLines = 3 * 1024;
    cfg.bankWays = 3; // 1024 sets of 3 ways is fine.
    EXPECT_TRUE(validate(cfg, &err)) << err;
}

TEST(ValidateTest, RejectsWarmupThatCoversEveryEpoch)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("epochs=2", &err)) << err;
    ASSERT_TRUE(ov.add("warmup=4", &err)) << err;
    SystemConfig cfg = benchConfig();
    ov.apply(cfg);
    EXPECT_FALSE(validate(cfg, &err));
    EXPECT_NE(err.find("warmup"), std::string::npos) << err;
    cfg.warmupEpochs = 2;
    EXPECT_FALSE(validate(cfg, &err));
    cfg.warmupEpochs = 1;
    EXPECT_TRUE(validate(cfg, &err)) << err;
}

TEST(ValidateTest, DegenerateButLegalInputsPass)
{
    Overrides ov;
    std::string err;
    ASSERT_TRUE(ov.add("epochAccesses=0", &err)) << err;
    ASSERT_TRUE(ov.add("mixes=0", &err)) << err;
    SystemConfig cfg = benchConfig();
    ov.apply(cfg);
    EXPECT_TRUE(validate(cfg, &err)) << err;
    EXPECT_TRUE(validate(SystemConfig{}, &err)) << err;
}

TEST(KnobTableTest, RowsAreUniqueAndComplete)
{
    std::set<std::string> names, envs, paths;
    for (const Knob &k : knobTable()) {
        EXPECT_NE(std::string(k.doc), "");
        if (k.name != nullptr) {
            EXPECT_TRUE(names.insert(k.name).second) << k.name;
            EXPECT_EQ(findKnob(k.name), &k);
        }
        if (k.env != nullptr) {
            EXPECT_TRUE(envs.insert(k.env).second) << k.env;
        }
        if (k.unkeyed != nullptr) {
            EXPECT_NE(std::string(k.unkeyed), "");
        }
        if (k.field == nullptr) {
            // Study knobs never reach SystemConfig, so never the key.
            EXPECT_EQ(k.path, nullptr) << k.name;
            EXPECT_NE(k.unkeyed, nullptr) << k.name;
        } else {
            ASSERT_NE(k.path, nullptr);
            EXPECT_TRUE(paths.insert(k.path).second) << k.path;
        }
        if (k.type == KnobType::Opaque) {
            EXPECT_EQ(k.name, nullptr) << k.path;
            EXPECT_NE(k.unkeyed, nullptr) << k.path;
        }
    }
    EXPECT_EQ(findKnob("noSuchKnob"), nullptr);
}

/** Change the field a row points at; false for opaque fields. */
bool
perturb(const Knob &k, SystemConfig &cfg)
{
    void *p = k.field(cfg);
    switch (k.type) {
      case KnobType::Int:
        *static_cast<int *>(p) += 1;
        return true;
      case KnobType::U32:
        *static_cast<std::uint32_t *>(p) += 1;
        return true;
      case KnobType::U64:
        *static_cast<std::uint64_t *>(p) += 1;
        return true;
      case KnobType::Double:
        *static_cast<double *>(p) += 0.5;
        return true;
      case KnobType::Bool:
        *static_cast<bool *>(p) = !*static_cast<bool *>(p);
        return true;
      case KnobType::String:
        *static_cast<std::string *>(p) += "x";
        return true;
      case KnobType::Opaque:
        break;
    }
    return false;
}

TEST(KnobTableTest, KeyedFieldsAndOnlyThoseChangeTheCacheKey)
{
    const SystemConfig base;
    std::string base_key;
    appendConfigKey(base_key, base);
    int keyed = 0;
    for (const Knob &k : knobTable()) {
        if (k.field == nullptr)
            continue;
        SystemConfig cfg = base;
        if (!perturb(k, cfg))
            continue;
        std::string key;
        appendConfigKey(key, cfg);
        if (k.unkeyed == nullptr) {
            EXPECT_NE(key, base_key) << k.path;
            keyed++;
        } else {
            EXPECT_EQ(key, base_key) << k.path;
        }
    }
    EXPECT_GT(keyed, 40);
}

TEST(KnobTableTest, StringValuesCannotAliasInTheKey)
{
    // Adjacent strings are length-prefixed, so moving a character
    // between two keyed string fields changes the key.
    SystemConfig a, b;
    a.churn = "2:-1";
    b.churn = "2:-1,";
    std::string ka, kb;
    appendConfigKey(ka, a);
    appendConfigKey(kb, b);
    EXPECT_NE(ka, kb);
}

/** Interesting value strings for the random-input loop. */
const char *const kValues[] = {
    "", "0", "1", "-1", "2", "16", "1000", "8192", "abc", "true", "off",
    "0.5", "1.0", "-0.5", "1e999", "1e-320", "nan", "-nan", "+inf",
    "-inf", " 3", "3 ", "0x10", ".", "-", "+", "99999999999",
    "2147483648", "4294967296", "18446744073709551616", "zero-load",
    "contention", "first-touch", "interleave", "hotness", "static",
    "noc", "3:-2,5:+1", "1:+99999999999", "0:-1", "2:-1,", "5/7",
    "1/1", "0/0", "-1/2"};

std::string
randomBytes(Rng &rng)
{
    std::string out(rng.below(12), ' ');
    for (char &c : out)
        c = static_cast<char>(1 + rng.below(255)); // No NULs (env).
    return out;
}

std::string
randomValue(Rng &rng)
{
    if (rng.below(3) == 0)
        return randomBytes(rng);
    std::string v = kValues[rng.below(std::size(kValues))];
    if (rng.below(4) == 0)
        v += kValues[rng.below(std::size(kValues))];
    return v;
}

/** An accepted config either validates or explains why not. */
void
expectValidatesOrExplains(const SystemConfig &cfg)
{
    std::string err;
    if (!validate(cfg, &err)) {
        EXPECT_FALSE(err.empty());
    }
    std::string key;
    appendConfigKey(key, cfg);
    EXPECT_FALSE(key.empty());
}

TEST(KnobFuzzTest, SeededRandomInputsNeverAbort)
{
    const std::span<const Knob> table = knobTable();
    Rng rng(0xF022);
    for (int iter = 0; iter < 4000; iter++) {
        const Knob &k = table[rng.below(table.size())];
        const std::string value = randomValue(rng);

        // --set: a table key (or garbage) with a random value.
        const std::string key = k.name != nullptr && rng.below(8) != 0
            ? std::string(k.name) : randomBytes(rng);
        Overrides ov;
        std::string err;
        if (ov.add(key + "=" + value, &err)) {
            SystemConfig cfg = benchConfig();
            ov.apply(cfg);
            expectValidatesOrExplains(cfg);
        } else {
            EXPECT_FALSE(err.empty()) << key << "=" << value;
        }
        if (ov.add(randomBytes(rng), &err)) {
            SystemConfig cfg = benchConfig();
            ov.apply(cfg);
            expectValidatesOrExplains(cfg);
        }

        // Environment: the same value through the row's variable.
        if (k.env != nullptr) {
            ::setenv(k.env, value.c_str(), 1);
            Overrides env;
            const bool ok = env.loadEnv(&err);
            ::unsetenv(k.env);
            if (ok) {
                SystemConfig cfg = benchConfig();
                env.applyEnv(cfg);
                expectValidatesOrExplains(cfg);
            } else {
                EXPECT_NE(err.find(k.env), std::string::npos) << err;
            }
        }

        // churn= and --shard grammars.
        std::vector<ChurnEvent> events;
        if (TrafficSchedule::parseChurn(value, &events, &err)) {
            for (const ChurnEvent &e : events) {
                EXPECT_GE(e.epoch, 1) << value;
                EXPECT_NE(e.delta, 0) << value;
            }
        }
        int index = -1, count = -1;
        if (parseShard(value, &index, &count)) {
            EXPECT_GE(index, 0) << value;
            EXPECT_LT(index, count) << value;
        }
    }
}

} // anonymous namespace
} // namespace cdcs
