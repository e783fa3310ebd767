/**
 * @file
 * End-to-end tests of the dynamic-traffic subsystem: churn runs stay
 * deterministic across worker counts and repeats, the epoch trace
 * records churn and recovery, the new knobs key the result cache,
 * and weighted speedup degrades gracefully when churn empties a mix.
 */

#include <gtest/gtest.h>

#include "sim/experiment_runner.hh"
#include "sim/system.hh"

namespace cdcs
{
namespace
{

SystemConfig
churnConfig()
{
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.bankLines = 2048;
    cfg.accessesPerThreadEpoch = 4000;
    cfg.epochs = 8;
    cfg.warmupEpochs = 2;
    cfg.churn = "4:-2,6:+2";
    return cfg;
}

bool
sameRun(const RunResult &a, const RunResult &b)
{
    if (a.threadIpc != b.threadIpc ||
        a.llcAccesses != b.llcAccesses ||
        a.memAccesses != b.memAccesses ||
        a.memCtrlAccesses != b.memCtrlAccesses ||
        a.epochTrace.size() != b.epochTrace.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.epochTrace.size(); i++) {
        const EpochRecord &ra = a.epochTrace[i];
        const EpochRecord &rb = b.epochTrace[i];
        if (ra.epoch != rb.epoch ||
            ra.activeThreads != rb.activeThreads ||
            ra.churnDelta != rb.churnDelta ||
            ra.aggIpc != rb.aggIpc ||
            ra.placementMoves != rb.placementMoves ||
            ra.movedLines != rb.movedLines) {
            return false;
        }
    }
    return true;
}

TEST(ElasticityTest, ChurnTraceRecordsDeparturesAndArrivals)
{
    const SystemConfig cfg = churnConfig();
    System system(cfg, SchemeSpec::cdcs(), buildMix(MixSpec::cpu(8, 21)));
    const RunResult res = system.run();

    ASSERT_EQ(res.epochTrace.size(),
              static_cast<std::size_t>(cfg.epochs));
    EXPECT_EQ(res.epochTrace[0].activeThreads, 8);
    // -2 entering epoch 4, +2 entering epoch 6.
    EXPECT_EQ(res.epochTrace[4].churnDelta, -2);
    EXPECT_EQ(res.epochTrace[4].activeThreads, 6);
    EXPECT_EQ(res.epochTrace[5].activeThreads, 6);
    EXPECT_EQ(res.epochTrace[6].churnDelta, 2);
    EXPECT_EQ(res.epochTrace[6].activeThreads, 8);
    EXPECT_EQ(res.churnEpochs(), (std::vector<int>{4, 6}));
    for (const EpochRecord &rec : res.epochTrace)
        EXPECT_GT(rec.aggIpc, 0.0);

    // Per-controller accounting covers the post-warmup accesses.
    ASSERT_FALSE(res.memCtrlAccesses.empty());
    std::uint64_t total = 0;
    for (std::uint64_t n : res.memCtrlAccesses)
        total += n;
    EXPECT_EQ(total, res.memAccesses);

    // The elasticity metrics resolve on this trace.
    EXPECT_GE(res.recoveryEpochsAfter(4), -1);
    EXPECT_GE(res.reconfigLatencyAfter(4), 0);
    EXPECT_GE(res.reconfigLatencyAfter(3), 0); // In-trace epoch.
}

TEST(ElasticityTest, StaticPathKeepsTraceEmpty)
{
    SystemConfig cfg = churnConfig();
    cfg.churn.clear();
    ASSERT_FALSE(cfg.dynamicTraffic());
    System system(cfg, SchemeSpec::cdcs(), buildMix(MixSpec::cpu(8, 21)));
    const RunResult res = system.run();
    EXPECT_TRUE(res.epochTrace.empty());
    EXPECT_EQ(res.recoveryEpochsAfter(4), -1);
}

TEST(ElasticityTest, ChurnRunsAreSeedStable)
{
    const SystemConfig cfg = churnConfig();
    const MixSpec mix = MixSpec::cpu(8, 33);
    System a(cfg, SchemeSpec::cdcs(), buildMix(mix));
    System b(cfg, SchemeSpec::cdcs(), buildMix(mix));
    EXPECT_TRUE(sameRun(a.run(), b.run()));
}

TEST(ElasticityTest, ChurnSweepIdenticalSerialAndParallel)
{
    SystemConfig cfg = churnConfig();
    cfg.skewAlpha = 0.8; // Skew + churn together.
    const std::vector<SchemeSpec> schemes = {
        SchemeSpec::snuca(), SchemeSpec::cdcs()};
    const auto mix_of = [](int m) {
        return MixSpec::cpu(8, 40 + static_cast<std::uint64_t>(m));
    };

    ExperimentRunner::Options serial;
    serial.workers = 1;
    ExperimentRunner::Options parallel;
    parallel.workers = 4;
    const SweepResult a =
        ExperimentRunner(serial).sweep(cfg, schemes, 2, mix_of);
    const SweepResult b =
        ExperimentRunner(parallel).sweep(cfg, schemes, 2, mix_of);

    ASSERT_EQ(a.ws.size(), b.ws.size());
    for (std::size_t s = 0; s < a.ws.size(); s++) {
        EXPECT_EQ(a.ws[s], b.ws[s]);
        EXPECT_TRUE(sameRun(a.firstRun[s], b.firstRun[s]));
    }
}

TEST(ElasticityTest, TrafficKnobsKeyTheResultCache)
{
    ExperimentRunner::Options opts;
    opts.workers = 1;
    ExperimentRunner runner(opts);

    SystemConfig cfg = churnConfig();
    const MixSpec mix = MixSpec::cpu(4, 55);
    const SchemeSpec scheme = SchemeSpec::cdcs();

    runner.run(cfg, scheme, mix);
    cfg.skewAlpha = 1.1; // Different knob, different cell.
    runner.run(cfg, scheme, mix);
    cfg.churn = "4:-1";
    runner.run(cfg, scheme, mix);
    cfg.churn.clear();
    cfg.skewAlpha = 0.0;
    cfg.skewDriftEpochs = 2;
    cfg.skewDriftFraction = 0.5;
    runner.run(cfg, scheme, mix);
    EXPECT_EQ(runner.cacheStats().entries, 4u);

    // An exact repeat hits instead of adding a cell.
    runner.run(cfg, scheme, mix);
    EXPECT_EQ(runner.cacheStats().entries, 4u);
    EXPECT_GE(runner.cacheStats().hits, 1u);
}

TEST(ElasticityTest, WeightedSpeedupNeutralOnEmptyBaseline)
{
    RunResult run, baseline;
    run.procThroughput = {1.0, 2.0};
    baseline.procThroughput = {0.0, 0.0}; // All departed mid-run.
    EXPECT_DOUBLE_EQ(weightedSpeedup(run, baseline), 1.0);

    // Partially measurable mixes still use the live processes.
    baseline.procThroughput = {0.0, 1.0};
    EXPECT_DOUBLE_EQ(weightedSpeedup(run, baseline), 2.0);
}

} // anonymous namespace
} // namespace cdcs
