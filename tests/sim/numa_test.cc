/**
 * @file
 * Tests for the NUMA-aware memory placement extension (the future
 * work Sec. III defers; memPlacement = "first-touch"):
 * first-touch pages are served by the controller nearest the
 * touching thread, cutting LLC-to-memory network distance.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace cdcs
{
namespace
{

TEST(NumaTest, NearestMemCtrlIsActuallyNearest)
{
    Mesh mesh(8, 8);
    for (TileId t = 0; t < mesh.numTiles(); t++) {
        const int nearest = mesh.nearestMemCtrl(t);
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_LE(mesh.hopsToCtrl(t, nearest),
                      mesh.hopsToCtrl(t, c));
        }
    }
}

TEST(NumaTest, CornerTilePrefersCornerController)
{
    Mesh mesh(8, 8);
    const TileId corner = mesh.tileAt(0, 0);
    const int ctrl = mesh.nearestMemCtrl(corner);
    EXPECT_LE(mesh.hopsToCtrl(corner, ctrl), 3);
}

TEST(NumaTest, NumaAwareReducesMemNetworkLatency)
{
    // R-NUCA keeps private data in the local bank, so with NUMA-aware
    // first-touch placement the bank-to-controller leg shrinks to the
    // thread's nearest edge; with page interleaving it averages over
    // all controllers. Off-chip latency (which includes the memory
    // network legs) must drop.
    SystemConfig base;
    base.meshWidth = 6;
    base.meshHeight = 6;
    base.accessesPerThreadEpoch = 10000;
    base.epochs = 4;
    base.warmupEpochs = 2;
    SystemConfig numa = base;
    numa.memPlacement = "first-touch";

    const MixSpec mix = MixSpec::named(
        {"milc", "milc", "milc", "milc"}, 33);
    const RunResult interleaved =
        runScheme(base, SchemeSpec::rnuca(), mix);
    const RunResult local = runScheme(numa, SchemeSpec::rnuca(), mix);

    // Same work, same misses (placement does not change hits).
    EXPECT_EQ(interleaved.memAccesses, local.memAccesses);
    EXPECT_LT(local.offChipLatSum, interleaved.offChipLatSum * 0.98);
    EXPECT_LT(local.flitHopsPerInstr(TrafficClass::LLCToMem),
              interleaved.flitHopsPerInstr(TrafficClass::LLCToMem));
}

TEST(NumaTest, ComposesWithCdcs)
{
    // The paper notes NUMA-aware placement is complementary to CDCS
    // (Sec. III / Fig. 11d): enabling it must not break anything and
    // should not increase memory traffic.
    SystemConfig base;
    base.meshWidth = 6;
    base.meshHeight = 6;
    base.accessesPerThreadEpoch = 10000;
    base.epochs = 4;
    base.warmupEpochs = 2;
    SystemConfig numa = base;
    numa.memPlacement = "first-touch";

    const MixSpec mix = MixSpec::cpu(8, 37);
    const RunResult a = runScheme(base, SchemeSpec::cdcs(), mix);
    const RunResult b = runScheme(numa, SchemeSpec::cdcs(), mix);
    EXPECT_DOUBLE_EQ(a.totalInstrs, b.totalInstrs);
    EXPECT_LE(b.flitHopsPerInstr(TrafficClass::LLCToMem),
              a.flitHopsPerInstr(TrafficClass::LLCToMem) * 1.02);
}

} // anonymous namespace
} // namespace cdcs
