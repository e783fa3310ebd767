/**
 * @file
 * Tests for the declarative study API: the registry enumerates every
 * converted harness, runStudy resolves config/knob precedence, text
 * output is deterministic and byte-identical to a hand-written
 * legacy-style rendering of the same experiment (the in-process
 * equivalent of the CI check that diffs `cdcs_studies run fig11`
 * against the legacy binary), and the JSON/CSV sinks produce
 * well-formed summaries.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/study.hh"

namespace cdcs
{
namespace
{

/** Small, env-independent knobs shared by the output tests. */
Overrides
tinyOverrides()
{
    Overrides ov;
    std::string err;
    // Keep the 8x8 mesh (64-app mixes need the cores) but shrink
    // the work; pin every env-controlled knob so the test is
    // hermetic under any CDCS_* environment.
    for (const char *kv :
         {"epochAccesses=600", "epochs=2", "warmup=1", "mixes=1",
          "chunkAccesses=1000", "seed=42"}) {
        if (!ov.add(kv, &err))
            ADD_FAILURE() << err;
    }
    return ov;
}

std::string
runFig11(const Overrides &ov)
{
    const StudySpec *spec = StudyRegistry::instance().find("fig11");
    if (spec == nullptr)
        return "";
    ExperimentRunner runner;
    StringReportSink sink;
    runStudy(*spec, ov, runner, sink);
    return sink.str();
}

TEST(StudyRegistryTest, EnumeratesEveryConvertedHarness)
{
    const auto all = StudyRegistry::instance().all();
    ASSERT_GE(all.size(), 20u);
    const char *expected[] = {
        "fig2",          "fig5",
        "fig11",         "fig12",
        "fig13",         "fig14",
        "fig15",         "fig16",
        "fig17",         "fig18",
        "table1",        "table3",
        "ablation_numa", "ablation_stability",
        "vic_bankgrain", "vic_monitors",
        "vic_placers",   "noc_sensitivity",
        "noc_heatmap",   "placement_contention",
    };
    for (const char *name : expected) {
        EXPECT_NE(StudyRegistry::instance().find(name), nullptr)
            << name;
    }
    EXPECT_EQ(StudyRegistry::instance().find("no_such_study"),
              nullptr);
    // all() is name-sorted.
    for (std::size_t i = 1; i < all.size(); i++)
        EXPECT_LT(all[i - 1]->name, all[i]->name);
}

TEST(StudyRegistryTest, SpecsCarryCategoryAndLineup)
{
    const StudySpec *fig11 = StudyRegistry::instance().find("fig11");
    ASSERT_NE(fig11, nullptr);
    EXPECT_EQ(fig11->category, "figure");
    ASSERT_EQ(fig11->lineup.size(), 5u);
    EXPECT_EQ(fig11->lineup.front(), "snuca");
    EXPECT_EQ(fig11->lineup.back(), "cdcs");
    // Every lineup name of every study resolves in the registry.
    for (const StudySpec *spec : StudyRegistry::instance().all()) {
        for (const std::string &name : spec->lineup) {
            EXPECT_TRUE(SchemeRegistry::instance().contains(name))
                << spec->name << ": " << name;
        }
    }
    const StudySpec *table1 =
        StudyRegistry::instance().find("table1");
    ASSERT_NE(table1, nullptr);
    EXPECT_EQ(table1->category, "table");
}

TEST(StudyTest, Fig11MatchesLegacyHarnessByteForByte)
{
    // The pre-study fig11 harness main(), transcribed: same
    // seeds, lineup, section structure and printf formats.
    Overrides ov = tinyOverrides();
    SystemConfig cfg;
    ov.apply(cfg);
    const int mixes = 1;

    ExperimentRunner runner;
    StringReportSink legacy;
    writeStudyHeader(legacy, "Fig. 11 (a-e)",
                     "50 mixes of 64 apps in the paper", cfg, mixes);
    const SweepResult sweep = runner.sweep(
        cfg,
        {SchemeSpec::snuca(), SchemeSpec::rnuca(),
         SchemeSpec::jigsaw(InitialSched::Clustered),
         SchemeSpec::jigsaw(InitialSched::Random),
         SchemeSpec::cdcs()},
        mixes, [](int m) { return MixSpec::cpu(64, 1000 + m); });
    legacy.printf("-- Fig. 11a: weighted speedup inverse CDF --\n");
    writeInverseCdf(legacy, sweep);
    legacy.printf("\n");
    writeWsSummary(legacy, sweep);
    legacy.printf("\n-- Fig. 11b-e: latency, traffic and energy "
                  "breakdowns (normalized to CDCS) --\n");
    writeBreakdowns(legacy, sweep);

    const std::string study_out = runFig11(ov);
    ASSERT_FALSE(study_out.empty());
    EXPECT_EQ(study_out, legacy.str());
}

TEST(StudyTest, OutputIsDeterministicAcrossRuns)
{
    const Overrides ov = tinyOverrides();
    const std::string a = runFig11(ov);
    const std::string b = runFig11(ov);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(StudyTest, OverridesReachTheConfigAndHeader)
{
    Overrides ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(ov.add("meshWidth=4", &err)) << err;
    ASSERT_TRUE(ov.add("meshHeight=4", &err)) << err;
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner;
    StringReportSink sink;
    ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
    EXPECT_NE(sink.str().find("mesh 4x4"), std::string::npos);
    EXPECT_NE(sink.str().find("600 accesses/thread/epoch"),
              std::string::npos);
}

TEST(StudyTest, ConfigureHookAppliesBeforeOverrides)
{
    // table1 configures a 6x6 mesh; a --set must still win (7x7
    // keeps room for the case study's 36 threads).
    Overrides ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(ov.add("meshWidth=7", &err)) << err;
    ASSERT_TRUE(ov.add("meshHeight=7", &err)) << err;
    const StudySpec *spec = StudyRegistry::instance().find("table1");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner;
    StringReportSink sink;
    ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
    EXPECT_NE(sink.str().find("mesh 7x7"), std::string::npos);
}

TEST(StudyTest, JsonSinkProducesOneDocument)
{
    const Overrides ov = tinyOverrides();
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner;

    std::FILE *stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    JsonReportSink sink(stream);
    ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
    sink.finish();
    std::rewind(stream);
    std::string doc(1 << 20, '\0');
    doc.resize(std::fread(doc.data(), 1, doc.size(), stream));
    std::fclose(stream);

    EXPECT_NE(doc.find("\"name\": \"fig14\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\": \"sweep\""), std::string::npos);
    EXPECT_NE(doc.find("\"S-NUCA\""), std::string::npos);
    int depth = 0;
    for (char c : doc) {
        depth += (c == '{' || c == '[');
        depth -= (c == '}' || c == ']');
    }
    EXPECT_EQ(depth, 0) << "unbalanced JSON document";
}

TEST(StudyTest, CsvSinkProducesSummaryRows)
{
    const Overrides ov = tinyOverrides();
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner runner;

    std::FILE *stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    CsvReportSink sink(stream);
    ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
    sink.finish();
    std::rewind(stream);
    std::string csv(1 << 16, '\0');
    csv.resize(std::fread(csv.data(), 1, csv.size(), stream));
    std::fclose(stream);

    EXPECT_EQ(csv.rfind("study,sweep,scheme,", 0), 0u);
    EXPECT_NE(csv.find("fig14,fig14_4app,S-NUCA,"),
              std::string::npos);
    EXPECT_NE(csv.find("fig14,fig14_4app,CDCS,"), std::string::npos);
}

TEST(StudyTest, CacheFooterAppearsOnlyWhenHitsOccur)
{
    const Overrides ov = tinyOverrides();
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    {
        // All misses: no footer (this is what keeps default text
        // output footer-free), but the second identical study on the
        // same runner hits and reports.
        ExperimentRunner runner;
        StringReportSink first;
        runStudy(*spec, ov, runner, first);
        EXPECT_EQ(first.str().find("[cache:"), std::string::npos);
        StringReportSink second;
        runStudy(*spec, ov, runner, second);
        EXPECT_NE(second.str().find("[cache:"), std::string::npos);
        // The footer adds one line; the study output is unchanged.
        const std::size_t footer = second.str().find("[cache:");
        EXPECT_EQ(second.str().substr(0, footer), first.str());
    }
    {
        // cacheStats=0 silences the footer even when the study hits.
        Overrides quiet = tinyOverrides();
        std::string err;
        ASSERT_TRUE(quiet.add("cacheStats=0", &err)) << err;
        ExperimentRunner runner;
        StringReportSink first;
        runStudy(*spec, quiet, runner, first);
        StringReportSink second;
        runStudy(*spec, quiet, runner, second);
        EXPECT_GT(runner.cacheStats().hits, 0u);
        EXPECT_EQ(second.str(), first.str());
    }
}

TEST(StudyTest, MemoServesCellsSharedAcrossStudies)
{
    // noc_heatmap's three runs are the injection-scale-1 contention
    // cells of noc_sensitivity (same config, schemes and mix seed),
    // so one runner serves all of them from its memo.
    Overrides ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(ov.add("workers=2", &err)) << err;
    const StudySpec *sensitivity =
        StudyRegistry::instance().find("noc_sensitivity");
    const StudySpec *heatmap =
        StudyRegistry::instance().find("noc_heatmap");
    ASSERT_NE(sensitivity, nullptr);
    ASSERT_NE(heatmap, nullptr);
    ExperimentRunner runner(runnerOptions(ov));
    StringReportSink sink;
    ASSERT_EQ(runStudy(*sensitivity, ov, runner, sink), 0);
    const ExperimentRunner::CacheStats before = runner.cacheStats();
    StringReportSink heat;
    ASSERT_EQ(runStudy(*heatmap, ov, runner, heat), 0);
    const ExperimentRunner::CacheStats after = runner.cacheStats();
    EXPECT_EQ(after.hits - before.hits, 3u);
    EXPECT_EQ(after.misses - before.misses, 0u);
    EXPECT_EQ(after.entries, before.entries);
    EXPECT_NE(heat.str().find("[cache: 3 hits, 0 misses, "),
              std::string::npos);
}

TEST(StudyTest, EnvironmentAndSetResolveToTheSameRun)
{
    // The CDCS_* column of the knob table feeds the same config as
    // `--set`: a run driven by the environment matches byte for byte.
    for (const auto &[name, value] :
         std::vector<std::pair<const char *, const char *>>{
             {"CDCS_EPOCH_ACCESSES", "600"},
             {"CDCS_EPOCHS", "2"},
             {"CDCS_WARMUP", "1"},
             {"CDCS_MIXES", "1"}})
        ::setenv(name, value, 1);
    Overrides env;
    std::string err;
    const bool ok = env.loadEnv(&err) &&
        env.add("chunkAccesses=1000", &err) && env.add("seed=42", &err);
    for (const char *name : {"CDCS_EPOCH_ACCESSES", "CDCS_EPOCHS",
                             "CDCS_WARMUP", "CDCS_MIXES"})
        ::unsetenv(name);
    ASSERT_TRUE(ok) << err;
    EXPECT_EQ(runFig11(env), runFig11(tinyOverrides()));
}

/** Run the CLI with `args`; returns its exit status. */
int
cli(std::vector<std::string> args)
{
    args.insert(args.begin(), "cdcs_studies");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return studiesCliMain(static_cast<int>(argv.size()), argv.data());
}

TEST(StudyCliTest, InvalidConfigsExitBeforeAnyJob)
{
    // Each would otherwise abort mid-run or report cold-start
    // numbers; all are rejected up front with exit status 2.
    EXPECT_EQ(cli({"run", "fig11", "--set", "bankLines=1000"}), 2);
    EXPECT_EQ(cli({"run", "all", "--set", "epochs=2", "--set",
                   "warmup=4"}),
              2);
    ::setenv("CDCS_EPOCHS", "abc", 1);
    EXPECT_EQ(cli({"run", "fig11"}), 2);
    ::unsetenv("CDCS_EPOCHS");
    ::setenv("CDCS_MIXES", "-1", 1);
    EXPECT_EQ(cli({"run", "fig11"}), 2);
    ::unsetenv("CDCS_MIXES");
    EXPECT_EQ(cli({"run", "fig11", "--shard", "3/2"}), 2);
    // The memo has no switch and no budget, so neither is a knob.
    EXPECT_EQ(cli({"run", "fig11", "--set", "cache=1"}), 2);
    EXPECT_EQ(cli({"run", "fig11", "--set", "cacheBudget=8"}), 2);
    // ... nor through the environment, where it used to be ignored.
    ::setenv("CDCS_CACHE_BUDGET", "3", 1);
    EXPECT_EQ(cli({"run", "fig14"}), 2);
    ::unsetenv("CDCS_CACHE_BUDGET");
    // A 2^43-line overlay under churn would size a 64 TiB hot table.
    EXPECT_EQ(cli({"run", "fig11", "--set", "churn=2:-1", "--set",
                   "skewLines=8796093022208", "--set",
                   "skewHotLines=8796093022208"}),
              2);
    EXPECT_EQ(cli({"run", "fig11", "--set", "skewHotLines=16777217"}),
              2);

    // A store directory that cannot be created (its parent is a
    // regular file) would abort a shard and make merge re-simulate.
    const std::string afile = ::testing::TempDir() + "cdcs_study_afile";
    std::FILE *f = std::fopen(afile.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    const std::string bad_store = "cacheDir=" + afile + "/store";
    EXPECT_EQ(cli({"run", "fig14", "--shard", "0/2", "--set",
                   bad_store, "--set", "mixes=1"}),
              2);
    EXPECT_EQ(cli({"merge", "fig14", "--set", bad_store, "--set",
                   "mixes=1"}),
              2);
    std::remove(afile.c_str());
}

TEST(StudyCliTest, MixLargerThanMeshExitsBeforeAnyJob)
{
    // The mix size is only known inside the study body; the runner
    // rejects the job set (exit 2) instead of aborting in Platform.
    const std::vector<std::string> tiny = {
        "--set", "epochAccesses=500", "--set", "epochs=2",
        "--set", "warmup=1",          "--set", "mixes=1"};
    std::vector<std::string> small_mesh = {
        "run", "fig11", "--set", "meshWidth=2", "--set",
        "meshHeight=2"};
    small_mesh.insert(small_mesh.end(), tiny.begin(), tiny.end());
    EXPECT_EQ(cli(small_mesh), 2);
    std::vector<std::string> many_apps = {"run", "vic_bankgrain",
                                          "--set", "apps=100"};
    many_apps.insert(many_apps.end(), tiny.begin(), tiny.end());
    EXPECT_EQ(cli(many_apps), 2);
}

TEST(StudyCliTest, MergeSimulatesNothing)
{
    const std::string dir = ::testing::TempDir() + "cdcs_merge_" +
        std::to_string(::getpid());
    std::system(("rm -rf '" + dir + "'").c_str());
    // An empty store has none of the cells: exit 2, nothing run.
    EXPECT_EQ(cli({"merge", "fig14", "--set", "cacheDir=" + dir,
                   "--set", "epochAccesses=600", "--set", "epochs=2",
                   "--set", "warmup=1", "--set", "mixes=1"}),
              2);

    // Once a run has filled the store, a replay-only runner serves
    // every cell from it, byte-identical to the run.
    Overrides ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(ov.add("cacheStats=0", &err)) << err;
    const StudySpec *spec = StudyRegistry::instance().find("fig14");
    ASSERT_NE(spec, nullptr);
    ExperimentRunner::Options opts;
    opts.cacheDir = dir;
    std::string ran;
    {
        ExperimentRunner runner(opts);
        StringReportSink sink;
        ASSERT_EQ(runStudy(*spec, ov, runner, sink), 0);
        ran = sink.str();
    }
    opts.replayOnly = true;
    ExperimentRunner replay(opts);
    StringReportSink sink;
    EXPECT_EQ(runStudy(*spec, ov, replay, sink), 0);
    EXPECT_EQ(sink.str(), ran);
    EXPECT_EQ(replay.cacheStats().storeMisses, 0u);

    // A cell outside the store (another seed) is a miss, reported
    // before anything runs.
    Overrides other = tinyOverrides();
    ASSERT_TRUE(other.add("seed=43", &err)) << err;
    StringReportSink missing;
    EXPECT_EQ(runStudy(*spec, other, replay, missing), 2);
    std::system(("rm -rf '" + dir + "'").c_str());
}

std::string
runStudyWithWorkers(const char *name, const Overrides &ov,
                    unsigned workers)
{
    const StudySpec *spec = StudyRegistry::instance().find(name);
    if (spec == nullptr)
        return "";
    ExperimentRunner::Options opts;
    opts.workers = workers;
    ExperimentRunner runner(opts);
    StringReportSink sink;
    runStudy(*spec, ov, runner, sink);
    return sink.str();
}

TEST(NocStudyTest, DefaultOutputByteIdenticalToExplicitZeroLoad)
{
    // The default network model is the zero-load adapter; naming it
    // explicitly must not change a study's bytes (the in-process
    // version of the CI diff).
    const std::string default_out = runFig11(tinyOverrides());
    Overrides explicit_ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(explicit_ov.add("noc=zero-load", &err)) << err;
    const std::string explicit_out = runFig11(explicit_ov);
    ASSERT_FALSE(default_out.empty());
    EXPECT_EQ(default_out, explicit_out);
}

TEST(NocStudyTest, SensitivityDeterministicAcrossWorkerCounts)
{
    const Overrides ov = tinyOverrides();
    const std::string serial =
        runStudyWithWorkers("noc_sensitivity", ov, 1);
    const std::string parallel =
        runStudyWithWorkers("noc_sensitivity", ov, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(NocStudyTest, HeatmapDeterministicAcrossWorkerCounts)
{
    const Overrides ov = tinyOverrides();
    const std::string serial =
        runStudyWithWorkers("noc_heatmap", ov, 1);
    const std::string parallel =
        runStudyWithWorkers("noc_heatmap", ov, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(NocStudyTest, DefaultOutputByteIdenticalToZeroLoadPlacementCost)
{
    // Under the default zero-load network model the contention-aware
    // placement cost oracle carries no waits, so pinning the flat hop
    // arithmetic explicitly must not change a study's bytes (the
    // in-process version of the CI oracle-refactor diff).
    const std::string default_out = runFig11(tinyOverrides());
    Overrides pinned_ov = tinyOverrides();
    std::string err;
    ASSERT_TRUE(pinned_ov.add("placementCost=zero-load", &err)) << err;
    const std::string pinned_out = runFig11(pinned_ov);
    ASSERT_FALSE(default_out.empty());
    EXPECT_EQ(default_out, pinned_out);
}

TEST(NocStudyTest, PlacementContentionDeterministicAcrossWorkerCounts)
{
    const Overrides ov = tinyOverrides();
    const std::string serial =
        runStudyWithWorkers("placement_contention", ov, 1);
    const std::string parallel =
        runStudyWithWorkers("placement_contention", ov, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(NocStudyTest, ContentionCostPlacementRelievesLoadedLinks)
{
    // The placement_contention acceptance shape: at a high injection
    // scale, pricing placement on the measured waits must not leave
    // flits waiting longer than the flat hop oracle does — the
    // runtime steers VCs and threads off the saturated routes.
    SystemConfig cfg;
    cfg.accessesPerThreadEpoch = 8000;
    cfg.epochs = 6;
    cfg.warmupEpochs = 2;
    cfg.nocModel = "contention";
    cfg.nocInjScale = 8.0;
    const SchemeSpec cdcs_scheme = schemesByName({"cdcs"})[0];
    const MixSpec mix = MixSpec::cpu(64, 11000);

    const auto mean_wait = [](const RunResult &run) {
        double wait_flits = 0.0, flits = 0.0;
        for (const NocLinkStat &link : run.nocLinks) {
            wait_flits +=
                link.waitCycles * static_cast<double>(link.flits);
            flits += static_cast<double>(link.flits);
        }
        return flits > 0.0 ? wait_flits / flits : 0.0;
    };

    ExperimentRunner runner;
    SystemConfig pinned = cfg;
    pinned.placementCost = "zero-load";
    const double pinned_wait =
        mean_wait(runner.run(pinned, cdcs_scheme, mix));
    SystemConfig adaptive = cfg;
    adaptive.placementCost = "noc";
    const double adaptive_wait =
        mean_wait(runner.run(adaptive, cdcs_scheme, mix));
    EXPECT_GT(pinned_wait, 0.0);
    EXPECT_LE(adaptive_wait, pinned_wait * 1.005);
}

TEST(NocStudyTest, ContentionLatencyMonotoneInInjectionScale)
{
    // The noc_sensitivity acceptance shape: per-scheme average
    // on-chip latency is non-decreasing in the injection-rate scale
    // (zero-load bounds the chain from below). Placement is pinned to
    // the flat hop oracle so the chain isolates the *network model's*
    // monotonicity: with the default contention-aware placement cost
    // the runtime steers traffic off loaded links and can beat the
    // zero-load-placement latency, which is the adaptation the
    // placement_contention study (and its tests) measure. Uses the
    // study's lineup and mix seed at an epoch length long enough for
    // the closed-loop dynamics (walker advance, memory queueing) to
    // settle.
    SystemConfig cfg;
    cfg.accessesPerThreadEpoch = 4000;
    cfg.epochs = 4;
    cfg.warmupEpochs = 2;
    cfg.placementCost = "zero-load";
    const std::vector<SchemeSpec> schemes =
        schemesByName({"snuca", "rnuca", "jigsaw-r", "cdcs"});
    const auto mix_of = [](int) { return MixSpec::cpu(64, 11000); };

    ExperimentRunner runner;
    SystemConfig zero_load = cfg;
    zero_load.nocModel = "zero-load";
    std::vector<double> prev =
        runner.sweep(zero_load, schemes, 1, mix_of).onChipLat;
    for (double scale : {1.0, 4.0, 8.0}) {
        SystemConfig contended = cfg;
        contended.nocModel = "contention";
        contended.nocInjScale = scale;
        const std::vector<double> lat =
            runner.sweep(contended, schemes, 1, mix_of).onChipLat;
        for (std::size_t s = 0; s < schemes.size(); s++) {
            EXPECT_GE(lat[s] + 1e-9, prev[s])
                << schemes[s].name << " at x" << scale;
        }
        prev = lat;
    }
}

} // anonymous namespace
} // namespace cdcs
