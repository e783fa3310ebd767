/**
 * @file
 * Tests for the parallel ExperimentRunner: a sweep must produce
 * bit-identical results whether it runs serially or sharded across
 * the work-stealing pool (guards the per-run RNG-stream invariant),
 * the result memo must not change results and must key every field
 * that can change a run, and the structured SweepResult/JSON export
 * must be well-formed.
 */

#include <atomic>
#include <functional>
#include <utility>

#include <gtest/gtest.h>

#include "sim/experiment_runner.hh"
#include "same_simulation.hh"

namespace cdcs
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.bankLines = 1024;
    cfg.accessesPerThreadEpoch = 3000;
    cfg.epochs = 3;
    cfg.warmupEpochs = 1;
    return cfg;
}

std::vector<SchemeSpec>
twoSchemes()
{
    return {SchemeSpec::snuca(), SchemeSpec::cdcs()};
}

ExperimentRunner::Options
runnerOpts(int workers)
{
    ExperimentRunner::Options opts;
    opts.workers = workers;
    return opts;
}

void
expectSameSweep(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    ASSERT_EQ(a.mixes(), b.mixes());
    for (std::size_t s = 0; s < a.schemes.size(); s++) {
        for (int m = 0; m < a.mixes(); m++)
            EXPECT_EQ(a.ws[s][m], b.ws[s][m]);
        EXPECT_EQ(a.onChipLat[s], b.onChipLat[s]);
        EXPECT_EQ(a.offChipLat[s], b.offChipLat[s]);
        EXPECT_EQ(a.energyPerInstr[s], b.energyPerInstr[s]);
        for (int c = 0; c < 3; c++)
            EXPECT_EQ(a.trafficPerInstr[s][c],
                      b.trafficPerInstr[s][c]);
        for (int e = 0; e < 5; e++)
            EXPECT_EQ(a.energyParts[s][e], b.energyParts[s][e]);
        EXPECT_TRUE(sameSimulation(a.firstRun[s], b.firstRun[s]));
    }
}

TEST(RunnerTest, SerialAndParallelSweepsAreBitIdentical)
{
    const SystemConfig cfg = smallConfig();
    const auto mix_of = [](int m) { return MixSpec::cpu(4, 500 + m); };

    ExperimentRunner serial(runnerOpts(/*workers=*/1));
    ExperimentRunner parallel(runnerOpts(/*workers=*/4));

    const SweepResult a = serial.sweep(cfg, twoSchemes(), 3, mix_of);
    const SweepResult b = parallel.sweep(cfg, twoSchemes(), 3, mix_of);
    expectSameSweep(a, b);
}

TEST(RunnerTest, RepeatedSweepsAreBitIdentical)
{
    // A second runner has an empty memo, so it simulates every run
    // again; the repeat must match bit for bit.
    const SystemConfig cfg = smallConfig();
    const auto mix_of = [](int m) { return MixSpec::cpu(4, 700 + m); };
    ExperimentRunner first(runnerOpts(/*workers=*/4));
    ExperimentRunner second(runnerOpts(/*workers=*/4));
    const SweepResult a = first.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult b = second.sweep(cfg, twoSchemes(), 2, mix_of);
    expectSameSweep(a, b);
    EXPECT_EQ(first.cacheStats().hits, 0u);
    EXPECT_EQ(second.cacheStats().hits, 0u);
}

TEST(RunnerTest, MemoizationDoesNotChangeResults)
{
    // A second lineup over the same mixes shares the S-NUCA
    // baselines with the first: the memoizing runner serves them
    // from the memo, a fresh runner simulates them.
    const SystemConfig cfg = smallConfig();
    const auto mix_of = [](int m) { return MixSpec::cpu(4, 900 + m); };
    const std::vector<SchemeSpec> other = {SchemeSpec::snuca(),
                                           SchemeSpec::rnuca()};
    ExperimentRunner memo(runnerOpts(/*workers=*/2));
    ExperimentRunner fresh(runnerOpts(/*workers=*/2));
    memo.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult a = memo.sweep(cfg, other, 2, mix_of);
    const SweepResult b = fresh.sweep(cfg, other, 2, mix_of);
    expectSameSweep(a, b);
    EXPECT_EQ(memo.cacheStats().hits, 2u); // One baseline per mix.
    EXPECT_EQ(fresh.cacheStats().hits, 0u);
}

TEST(RunnerTest, RunMatchesDirectRunScheme)
{
    const SystemConfig cfg = smallConfig();
    const MixSpec mix = MixSpec::cpu(4, 42);
    ExperimentRunner runner;
    EXPECT_TRUE(sameSimulation(runner.run(cfg, SchemeSpec::cdcs(), mix),
                               runScheme(cfg, SchemeSpec::cdcs(), mix)));
}

TEST(RunnerTest, RunSchemesKeepsSchemeOrder)
{
    const SystemConfig cfg = smallConfig();
    const MixSpec mix = MixSpec::cpu(4, 43);
    ExperimentRunner runner(runnerOpts(/*workers=*/4));
    const auto results = runner.runSchemes(cfg, twoSchemes(), mix);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(sameSimulation(results[0],
                               runScheme(cfg, SchemeSpec::snuca(), mix)));
    EXPECT_TRUE(sameSimulation(results[1],
                               runScheme(cfg, SchemeSpec::cdcs(), mix)));
}

TEST(RunnerTest, ForEachVisitsEveryIndexOnce)
{
    ExperimentRunner runner(runnerOpts(/*workers=*/4));
    std::vector<std::atomic<int>> hits(128);
    runner.forEach(128, [&](int i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    // Degenerate sizes are no-ops.
    runner.forEach(0, [&](int) { FAIL(); });
    runner.forEach(-3, [&](int) { FAIL(); });
}

TEST(RunnerTest, SweepHandlesZeroWorkRunsWithoutNan)
{
    // A zero-access run retires zero instructions. Aggregates must
    // stay finite (the seed divided by totalInstrs == 0 here).
    SystemConfig cfg = smallConfig();
    cfg.accessesPerThreadEpoch = 0;
    ExperimentRunner runner(runnerOpts(/*workers=*/1));
    // Weighted speedup is undefined with a zero-throughput baseline,
    // so sweep() cannot be used; check the per-run aggregation path.
    const RunResult r =
        runner.run(cfg, SchemeSpec::cdcs(), MixSpec::cpu(2, 7));
    EXPECT_EQ(r.totalInstrs, 0.0);
    EXPECT_EQ(r.offChipLatPerInstr(), 0.0);
    SweepResult sweep;
    sweep.schemes = twoSchemes();
    sweep.ws.assign(2, std::vector<double>{});
    sweep.onChipLat.assign(2, 0.0);
    sweep.offChipLat.assign(2, 0.0);
    sweep.trafficPerInstr.assign(2, {0.0, 0.0, 0.0});
    sweep.energyPerInstr.assign(2, 0.0);
    sweep.energyParts.assign(2, {0, 0, 0, 0, 0});
    EXPECT_EQ(sweep.mixes(), 0);
    const std::string json = sweep.toJson();
    EXPECT_NE(json.find("\"S-NUCA\""), std::string::npos);
}

TEST(RunnerTest, ResultCacheDoesNotChangeResults)
{
    const SystemConfig cfg = smallConfig();
    const auto mix_of = [](int m) { return MixSpec::cpu(4, 1300 + m); };
    ExperimentRunner cached(runnerOpts(/*workers=*/2));
    ExperimentRunner fresh(runnerOpts(/*workers=*/2));
    // Second sweep is served entirely from the memo.
    cached.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult a = cached.sweep(cfg, twoSchemes(), 2, mix_of);
    const SweepResult b = fresh.sweep(cfg, twoSchemes(), 2, mix_of);
    expectSameSweep(a, b);

    const ExperimentRunner::CacheStats stats = cached.cacheStats();
    EXPECT_EQ(stats.misses, 4u);  // 2 schemes x 2 mixes, once.
    EXPECT_EQ(stats.hits, 4u);    // The whole second sweep.
    EXPECT_EQ(stats.entries, 4u);
}

TEST(RunnerTest, EverySchemeAndMixFieldKeysTheMemo)
{
    // The SchemeSpec and MixSpec sections of the memo key are written
    // by hand (the config section comes from the knob table, which
    // KnobTableTest covers). A field left out would alias two
    // different runs, so every perturbation must add a cell.
    SystemConfig cfg = smallConfig();
    cfg.accessesPerThreadEpoch = 300;
    cfg.epochs = 2;
    ExperimentRunner runner(runnerOpts(/*workers=*/1));
    const SchemeSpec base = SchemeSpec::cdcs();
    MixSpec base_mix = MixSpec::named({"milc", "gcc"}, 7);
    base_mix.count = 2; // Fits the mesh if the kind flips to Cpu.
    runner.run(cfg, base, base_mix);
    ASSERT_EQ(runner.cacheStats().misses, 1u);

    const auto expect_new_cell = [&](const SchemeSpec &scheme,
                                     const MixSpec &mix,
                                     const char *field) {
        const ExperimentRunner::CacheStats before = runner.cacheStats();
        runner.run(cfg, scheme, mix);
        const ExperimentRunner::CacheStats after = runner.cacheStats();
        EXPECT_EQ(after.misses, before.misses + 1) << field;
        EXPECT_EQ(after.hits, before.hits) << field;
    };
    const std::vector<std::pair<const char *,
                                std::function<void(SchemeSpec &)>>>
        scheme_fields = {
            {"kind", [](SchemeSpec &s) { s.kind = SchemeKind::RNuca; }},
            {"moves",
             [](SchemeSpec &s) { s.moves = MoveScheme::Instant; }},
            {"sched",
             [](SchemeSpec &s) { s.sched = InitialSched::Clustered; }},
            {"monitor",
             [](SchemeSpec &s) { s.monitor = MonitorKind::Umon; }},
            {"monitorWays", [](SchemeSpec &s) { s.monitorWays = 32; }},
            {"monitorSets", [](SchemeSpec &s) { s.monitorSets = 8; }},
            {"monitorSampleShift",
             [](SchemeSpec &s) { s.monitorSampleShift = 3; }},
            {"placer",
             [](SchemeSpec &s) { s.placer = PlacerKind::Bisection; }},
            {"saIterations", [](SchemeSpec &s) { s.saIterations = 10; }},
            {"cdcsOpts.latencyAwareAlloc",
             [](SchemeSpec &s) { s.cdcsOpts.latencyAwareAlloc = false; }},
            {"cdcsOpts.placeThreads",
             [](SchemeSpec &s) { s.cdcsOpts.placeThreads = false; }},
            {"cdcsOpts.refineTrades",
             [](SchemeSpec &s) { s.cdcsOpts.refineTrades = false; }},
            {"cdcsOpts.minAllocLines",
             [](SchemeSpec &s) { s.cdcsOpts.minAllocLines = 32.0; }},
            {"cdcsOpts.sizeHysteresis",
             [](SchemeSpec &s) { s.cdcsOpts.sizeHysteresis = 0.3; }},
            {"cdcsOpts.placeGranule",
             [](SchemeSpec &s) { s.cdcsOpts.placeGranule = 128.0; }},
        };
    for (const auto &[field, perturb] : scheme_fields) {
        SchemeSpec scheme = base;
        perturb(scheme);
        expect_new_cell(scheme, base_mix, field);
    }
    const std::vector<std::pair<const char *,
                                std::function<void(MixSpec &)>>>
        mix_fields = {
            {"mix.kind", [](MixSpec &m) { m.kind = MixSpec::Kind::Cpu; }},
            {"mix.count", [](MixSpec &m) { m.count = 3; }},
            {"mix.names", [](MixSpec &m) { m.names[1] = "mcf"; }},
            {"mix.seed", [](MixSpec &m) { m.seed = 8; }},
        };
    for (const auto &[field, perturb] : mix_fields) {
        MixSpec mix = base_mix;
        perturb(mix);
        expect_new_cell(base, mix, field);
    }

    // The name is a label, not behaviour: a renamed scheme hits.
    const ExperimentRunner::CacheStats before = runner.cacheStats();
    SchemeSpec renamed = base;
    renamed.name = "relabelled";
    runner.run(cfg, renamed, base_mix);
    EXPECT_EQ(runner.cacheStats().misses, before.misses);
    EXPECT_EQ(runner.cacheStats().hits, before.hits + 1);
}

TEST(RunnerTest, MixLargerThanMeshRejectsTheJobSetBeforeAnyJob)
{
    SystemConfig cfg = smallConfig();
    cfg.meshWidth = 2;
    cfg.meshHeight = 2;
    // Any job that reached the runner's memo lookup would count a
    // miss.
    ExperimentRunner runner(runnerOpts(/*workers=*/2));
    const SchemeSpec snuca = SchemeSpec::snuca();
    // A fitting mix queued before an oversized one: neither runs.
    const std::vector<ExperimentRunner::Job> jobs = {
        {cfg, snuca, MixSpec::cpu(4, 1)},
        {cfg, snuca, MixSpec::cpu(5, 2)}};
    EXPECT_THROW(runner.runAll(jobs), JobSetError);
    EXPECT_THROW(runner.sweep(cfg, {snuca}, 2,
                              [](int m) {
                                  return MixSpec::cpu(4 + m, 1);
                              }),
                 JobSetError);
    try {
        runner.run(cfg, snuca, MixSpec::cpu(5, 3));
        ADD_FAILURE() << "oversized mix was not rejected";
    } catch (const JobSetError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("5 threads"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4 tiles"), std::string::npos) << msg;
    }
    EXPECT_EQ(runner.cacheStats().misses, 0u);
    // The same runner still runs a job set that fits.
    runner.run(cfg, snuca, MixSpec::cpu(4, 1));
    EXPECT_EQ(runner.cacheStats().misses, 1u);
}

TEST(RunnerTest, JsonExportContainsPerMixAndAggregateData)
{
    const SystemConfig cfg = smallConfig();
    ExperimentRunner runner(runnerOpts(/*workers=*/2));
    const SweepResult sweep = runner.sweep(
        cfg, twoSchemes(), 2,
        [](int m) { return MixSpec::cpu(4, 1100 + m); });
    const std::string json = sweep.toJson();
    EXPECT_NE(json.find("\"mixes\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"S-NUCA\""), std::string::npos);
    EXPECT_NE(json.find("\"CDCS\""), std::string::npos);
    EXPECT_NE(json.find("\"gmeanWs\""), std::string::npos);
    EXPECT_NE(json.find("\"energyParts\""), std::string::npos);
    // S-NUCA's weighted speedup against itself is exactly 1.
    EXPECT_EQ(sweep.ws[0][0], 1.0);
    EXPECT_EQ(sweep.ws[0][1], 1.0);
}

} // anonymous namespace
} // namespace cdcs
