/**
 * @file
 * Tests for the pluggable NoC layer: zero-load parity with the legacy
 * Mesh arithmetic, contention-model monotonicity and clamping,
 * per-link accounting conservation (link flits sum to flit-hops), and
 * the model registry.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/mem_migration.hh"
#include "net/contention_noc.hh"
#include "net/noc_registry.hh"
#include "net/zero_load_noc.hh"

namespace cdcs
{
namespace
{

TEST(ZeroLoadNocTest, LatencyMatchesLegacyMeshArithmetic)
{
    const Mesh mesh(6, 6);
    const ZeroLoadNoc noc(mesh);
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++) {
            for (std::uint32_t flits : {1u, 5u}) {
                EXPECT_EQ(noc.latency(a, b, flits),
                          static_cast<double>(mesh.latency(
                              mesh.hops(a, b), flits)));
            }
        }
    }
}

TEST(ZeroLoadNocTest, MemLatencyMatchesLegacyMeshArithmetic)
{
    const Mesh mesh(8, 8);
    const ZeroLoadNoc noc(mesh);
    for (TileId t = 0; t < mesh.numTiles(); t++) {
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_EQ(noc.memLatency(t, c, 5),
                      static_cast<double>(mesh.latency(
                          mesh.hopsToCtrl(t, c), 5)));
        }
    }
}

TEST(ZeroLoadNocTest, TrafficAccountingMatchesMeshCounters)
{
    const Mesh mesh(4, 4);
    ZeroLoadNoc noc(mesh);
    const TileId a = mesh.tileAt(0, 0);
    const TileId b = mesh.tileAt(3, 0); // 3 hops.
    noc.addTraffic(TrafficClass::L2ToLLC, a, b, 5);
    noc.addMemTraffic(TrafficClass::LLCToMem, a, 2, 1);
    EXPECT_EQ(noc.trafficFlitHops(TrafficClass::L2ToLLC), 15u);
    EXPECT_EQ(noc.trafficFlitHops(TrafficClass::LLCToMem),
              static_cast<std::uint64_t>(mesh.hopsToCtrl(a, 2)));
    EXPECT_EQ(noc.totalFlitHops(),
              15u + static_cast<std::uint64_t>(mesh.hopsToCtrl(a, 2)));
    noc.clearTraffic();
    EXPECT_EQ(noc.totalFlitHops(), 0u);
    EXPECT_TRUE(noc.linkStats().empty());
}

TEST(ContentionNocTest, ZeroTrafficMatchesZeroLoad)
{
    const Mesh mesh(6, 6);
    const ZeroLoadNoc zero(mesh);
    ContentionNoc cont(mesh, 1.0, 0.95);
    cont.epochUpdate(1e6);
    for (TileId a = 0; a < mesh.numTiles(); a += 5) {
        for (TileId b = 0; b < mesh.numTiles(); b += 3) {
            EXPECT_DOUBLE_EQ(cont.latency(a, b, 5),
                             zero.latency(a, b, 5));
        }
    }
}

TEST(ContentionNocTest, LinkAccountingConservesFlitHops)
{
    const Mesh mesh(6, 6);
    ContentionNoc noc(mesh, 1.0, 0.95);
    Rng rng(123);
    for (int i = 0; i < 2000; i++) {
        const auto a = static_cast<TileId>(
            rng.next() % mesh.numTiles());
        const auto b = static_cast<TileId>(
            rng.next() % mesh.numTiles());
        const auto flits =
            static_cast<std::uint32_t>(1 + rng.next() % 5);
        if (i % 3 == 0) {
            const int ctrl = static_cast<int>(
                rng.next() % mesh.numMemCtrls());
            noc.addMemTraffic(TrafficClass::LLCToMem, a, ctrl,
                              flits);
        } else {
            noc.addTraffic(TrafficClass::L2ToLLC, a, b, flits);
        }
    }
    std::uint64_t link_sum = 0;
    for (const NocLinkStat &link : noc.linkStats())
        link_sum += link.flits;
    EXPECT_EQ(link_sum, noc.totalFlitHops());
}

TEST(ContentionNocTest, RequestAndResponseChargeOppositeLinks)
{
    // A request/response pair split into two directed calls loads
    // the forward and reverse links separately; the old single-call
    // accounting left reverse links idle and double-counted forward.
    const Mesh mesh(4, 4);
    ContentionNoc noc(mesh, 1.0, 0.95);
    const TileId a = mesh.tileAt(0, 1);
    const TileId b = mesh.tileAt(3, 1);
    noc.addTraffic(TrafficClass::L2ToLLC, a, b, 1);  // Request.
    noc.addTraffic(TrafficClass::L2ToLLC, b, a, 5);  // Response.

    std::uint64_t east = 0, west = 0;
    for (const NocLinkStat &link : noc.linkStats()) {
        if (link.memCtrl >= 0 || link.flits == 0)
            continue;
        const MeshCoord s = mesh.coordOf(link.src);
        const MeshCoord d = mesh.coordOf(link.dst);
        if (d.x > s.x)
            east += link.flits;
        else if (d.x < s.x)
            west += link.flits;
    }
    EXPECT_EQ(east, 3u);  // 1 ctrl flit x 3 hops.
    EXPECT_EQ(west, 15u); // 5 data flits x 3 hops.
    // Per-class totals still see the symmetric sum.
    EXPECT_EQ(noc.trafficFlitHops(TrafficClass::L2ToLLC), 18u);
}

TEST(ContentionNocTest, MemResponseChargesReverseRouteAndAttach)
{
    const Mesh mesh(6, 6);
    ContentionNoc noc(mesh, 1.0, 0.95);
    const int ctrl = 0;
    const TileId ctrl_tile = mesh.memCtrlTile(ctrl);
    const TileId far = mesh.tileAt(5, 5);
    noc.addMemTraffic(TrafficClass::LLCToMem, far, ctrl, 1);
    noc.addMemResponse(TrafficClass::LLCToMem, ctrl, far, 5);

    // Flit-hop totals are direction-symmetric.
    const auto hops =
        static_cast<std::uint64_t>(mesh.hopsToCtrl(far, ctrl));
    EXPECT_EQ(noc.trafficFlitHops(TrafficClass::LLCToMem),
              hops * 6);
    // The attach link carries both directions; mesh links split.
    std::uint64_t attach = 0, from_ctrl = 0, to_ctrl = 0;
    for (const NocLinkStat &link : noc.linkStats()) {
        if (link.memCtrl == ctrl)
            attach = link.flits;
        else if (link.src == ctrl_tile && link.flits > 0)
            from_ctrl += link.flits;
        else if (link.dst == ctrl_tile && link.flits > 0)
            to_ctrl += link.flits;
    }
    EXPECT_EQ(attach, 6u);
    EXPECT_EQ(from_ctrl, 5u); // First hop of the response route.
    EXPECT_EQ(to_ctrl, 1u);   // Last hop of the request route.
    // Conservation: per-direction link flits sum to flit-hops.
    std::uint64_t link_sum = 0;
    for (const NocLinkStat &link : noc.linkStats())
        link_sum += link.flits;
    EXPECT_EQ(link_sum, noc.totalFlitHops());
}

TEST(ContentionNocTest, FarTierTrafficChargesTheFarAttachLinks)
{
    // A page copied far -> far between two controllers is one far
    // response out of the source controller and one far request into
    // the destination. With far links on it loads only the far attach
    // links; with them off it lands on the near attach links. Either
    // way the per-class flit-hops equal a near -> near copy's.
    const Mesh mesh(4, 4);
    const int src_ctrl = 0;
    const int dst_ctrl = mesh.numMemCtrls() - 1;
    const std::uint64_t page_flits =
        linesPerPage * mesh.config().dataFlits();
    std::uint64_t migrated = 0;
    ContentionNoc near_copy(mesh, 1.0, 0.95, true);
    recordPageMigration(near_copy, mesh, src_ctrl, MemTier::Near,
                        dst_ctrl, MemTier::Near, migrated);
    for (bool far_links : {true, false}) {
        ContentionNoc noc(mesh, 1.0, 0.95, far_links);
        recordPageMigration(noc, mesh, src_ctrl, MemTier::Far,
                            dst_ctrl, MemTier::Far, migrated);
        EXPECT_EQ(noc.trafficFlitHops(TrafficClass::Other),
                  near_copy.trafficFlitHops(TrafficClass::Other));
        std::uint64_t near_attach = 0, far_attach = 0;
        std::uint64_t src_attach = 0, dst_attach = 0, link_sum = 0;
        for (const NocLinkStat &link : noc.linkStats()) {
            link_sum += link.flits;
            if (link.memCtrl < 0)
                continue;
            EXPECT_TRUE(far_links || !link.far);
            (link.far ? far_attach : near_attach) += link.flits;
            if (link.memCtrl == src_ctrl)
                src_attach += link.flits;
            if (link.memCtrl == dst_ctrl)
                dst_attach += link.flits;
        }
        EXPECT_EQ(far_attach, far_links ? 2 * page_flits : 0u);
        EXPECT_EQ(near_attach, far_links ? 0u : 2 * page_flits);
        EXPECT_EQ(src_attach, page_flits); // The response leaves here.
        EXPECT_EQ(dst_attach, page_flits); // The request enters here.
        EXPECT_EQ(link_sum, noc.totalFlitHops());
    }
    EXPECT_EQ(migrated, 3u);
}

TEST(ContentionNocTest, ResponseLatencyReadsResponseDirectionWaits)
{
    // Load only the response direction of a memory route: the
    // response latency must see the wait, the request latency must
    // not (beyond the shared attach link).
    const Mesh mesh(6, 6);
    ContentionNoc noc(mesh, 1.0, 0.95);
    const int ctrl = 0;
    const TileId ctrl_tile = mesh.memCtrlTile(ctrl);
    const TileId far = mesh.tileAt(5, 5);
    // Saturate the mesh route leaving the controller tile, not the
    // attach link.
    noc.addTraffic(TrafficClass::Other, ctrl_tile, far, 50000);
    noc.epochUpdate(10000.0);

    EXPECT_GT(noc.memResponsePathWait(ctrl, far, MemTier::Near),
              0.0);
    EXPECT_EQ(noc.memPathWait(far, ctrl, MemTier::Near), 0.0);
    EXPECT_EQ(noc.memLatency(far, ctrl, 1),
              static_cast<double>(
                  mesh.latency(mesh.hopsToCtrl(far, ctrl), 1)));
    EXPECT_EQ(noc.memResponseLatency(ctrl, far, 5),
              static_cast<double>(
                  mesh.latency(mesh.hopsToCtrl(far, ctrl), 5)) +
                  noc.memResponsePathWait(ctrl, far,
                                          MemTier::Near));
}

TEST(ZeroLoadNocTest, MemResponseLatencyIsSymmetric)
{
    // Zero-load hop counts are direction-symmetric: the response leg
    // costs exactly the request leg.
    const Mesh mesh(6, 6);
    const ZeroLoadNoc noc(mesh);
    for (TileId t = 0; t < mesh.numTiles(); t += 5) {
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_EQ(noc.memResponseLatency(c, t, 5),
                      noc.memLatency(t, c, 5));
        }
    }
}

TEST(ContentionNocTest, WaitMonotonicInLoad)
{
    const Mesh mesh(8, 8);
    const TileId src = mesh.tileAt(0, 3);
    const TileId dst = mesh.tileAt(7, 3);
    double prev = 0.0;
    for (std::uint32_t load : {0u, 100u, 1000u, 10000u, 100000u}) {
        ContentionNoc noc(mesh, 1.0, 0.95);
        if (load > 0)
            noc.addTraffic(TrafficClass::L2ToLLC, src, dst, load);
        noc.epochUpdate(10000.0);
        const double lat = noc.latency(src, dst, 1);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

TEST(ContentionNocTest, WaitMonotonicInInjectionScale)
{
    const Mesh mesh(8, 8);
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(7, 7);
    double prev = 0.0;
    for (double scale : {1.0, 2.0, 4.0, 8.0, 64.0}) {
        ContentionNoc noc(mesh, scale, 0.95);
        noc.addTraffic(TrafficClass::L2ToLLC, src, dst, 500);
        noc.epochUpdate(10000.0);
        const double lat = noc.latency(src, dst, 5);
        EXPECT_GE(lat, prev);
        prev = lat;
    }
}

TEST(ContentionNocTest, UtilizationClampBoundsTheWait)
{
    const Mesh mesh(4, 4);
    ContentionNoc noc(mesh, 1.0, 0.9);
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(1, 0);
    // Offered load far beyond link bandwidth.
    noc.addTraffic(TrafficClass::L2ToLLC, src, dst, 1000000);
    noc.epochUpdate(10.0);
    for (const NocLinkStat &link : noc.linkStats()) {
        EXPECT_LE(link.util, 0.9 + 1e-12);
        // M/D/1 at the clamp: S * rho / (2 (1 - rho)) = 4.5 cycles.
        EXPECT_LE(link.waitCycles, 4.5 + 1e-12);
    }
    EXPECT_LE(noc.latency(src, dst, 1) -
                  static_cast<double>(mesh.latency(1, 1)),
              4.5 + 1e-12);
}

TEST(ContentionNocTest, ClearTrafficKeepsTheContentionEstimate)
{
    const Mesh mesh(4, 4);
    ContentionNoc noc(mesh, 1.0, 0.95);
    const TileId src = mesh.tileAt(0, 0);
    const TileId dst = mesh.tileAt(3, 0);
    noc.addTraffic(TrafficClass::L2ToLLC, src, dst, 5000);
    noc.epochUpdate(1000.0);
    const double loaded = noc.latency(src, dst, 1);
    EXPECT_GT(loaded,
              static_cast<double>(
                  mesh.latency(mesh.hops(src, dst), 1)));

    noc.clearTraffic();
    EXPECT_EQ(noc.totalFlitHops(), 0u);
    // Counters reset, wait table preserved (warmup boundary).
    EXPECT_DOUBLE_EQ(noc.latency(src, dst, 1), loaded);
    // The next epoch sees no traffic and relaxes back to zero-load.
    noc.epochUpdate(1000.0);
    EXPECT_DOUBLE_EQ(noc.latency(src, dst, 1),
                     static_cast<double>(
                         mesh.latency(mesh.hops(src, dst), 1)));
}

TEST(ZeroLoadNocTest, PathWaitQueriesAnswerZero)
{
    // The placement cost oracle's query: the zero-load model answers
    // 0 everywhere, which is what keeps the default runtime cost
    // model byte-identical to the legacy hop arithmetic.
    const Mesh mesh(6, 6);
    const ZeroLoadNoc noc(mesh);
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++)
            EXPECT_EQ(noc.pathWait(a, b), 0.0);
        for (int c = 0; c < mesh.numMemCtrls(); c++)
            EXPECT_EQ(noc.memPathWait(a, c, MemTier::Near), 0.0);
    }
}

TEST(ContentionNocTest, LatencyDecomposesIntoZeroLoadPlusPathWait)
{
    // pathWait/memPathWait expose exactly the contention surcharge
    // the latency queries charge: latency == Mesh zero-load + wait.
    const Mesh mesh(6, 6);
    ContentionNoc noc(mesh, 2.0, 0.95);
    Rng rng(99);
    for (int i = 0; i < 3000; i++) {
        const auto a = static_cast<TileId>(
            rng.next() % mesh.numTiles());
        const auto b = static_cast<TileId>(
            rng.next() % mesh.numTiles());
        if (i % 4 == 0) {
            noc.addMemTraffic(
                TrafficClass::LLCToMem, a,
                static_cast<int>(rng.next() % mesh.numMemCtrls()),
                5);
        } else {
            noc.addTraffic(TrafficClass::L2ToLLC, a, b, 5);
        }
    }
    noc.epochUpdate(5000.0);
    for (TileId a = 0; a < mesh.numTiles(); a += 2) {
        for (TileId b = 1; b < mesh.numTiles(); b += 3) {
            EXPECT_DOUBLE_EQ(
                noc.latency(a, b, 5),
                static_cast<double>(
                    mesh.latency(mesh.hops(a, b), 5)) +
                    noc.pathWait(a, b));
        }
        for (int c = 0; c < mesh.numMemCtrls(); c++) {
            EXPECT_DOUBLE_EQ(
                noc.memLatency(a, c, 5),
                static_cast<double>(
                    mesh.latency(mesh.hopsToCtrl(a, c), 5)) +
                    noc.memPathWait(a, c, MemTier::Near));
        }
    }
}

TEST(ContentionNocTest, FlattenedWaitsMatchRouteWalkBitForBit)
{
    // The flattened per-epoch tables must reproduce the literal
    // link-by-link route walk bit-for-bit (EXPECT_EQ, not NEAR) on
    // randomized meshes under randomized traffic: any FP reassociation
    // in the flattening would silently shift every downstream study.
    // With far links on, half the memory traffic loads the far attach
    // links and both tiers' tables are checked.
    Rng rng(2024);
    const int dims[][2] = {{2, 2}, {4, 4}, {6, 6}, {5, 3}, {3, 7}};
    for (bool far_links : {false, true}) {
        for (const auto &dim : dims) {
            const Mesh mesh(dim[0], dim[1]);
            ContentionNoc noc(mesh, 1.0, 0.95, far_links);
            const int tiles = mesh.numTiles();
            // Random traffic over all classes and both mem directions.
            for (int i = 0; i < 40 * tiles; i++) {
                const auto src =
                    static_cast<TileId>(rng.below(tiles));
                const auto dst =
                    static_cast<TileId>(rng.below(tiles));
                const auto flits =
                    static_cast<std::uint32_t>(1 + rng.below(8));
                noc.addTraffic(TrafficClass::L2ToLLC, src, dst, flits);
                const int ctrl = static_cast<int>(
                    rng.below(mesh.numMemCtrls()));
                const MemTier tier = far_links && i % 2 == 1
                    ? MemTier::Far
                    : MemTier::Near;
                noc.addMemTraffic(TrafficClass::LLCToMem, src, ctrl,
                                  flits, tier);
                noc.addMemResponse(TrafficClass::LLCToMem, ctrl, dst,
                                   flits, tier);
            }
            noc.epochUpdate(1000.0 + rng.uniform(0.0, 500.0));

            for (TileId a = 0; a < tiles; a++) {
                for (TileId b = 0; b < tiles; b++) {
                    EXPECT_EQ(noc.pathWait(a, b),
                              noc.walkPathWait(a, b));
                }
            }
            // Mem legs: the reference is the walk plus/then the
            // tier's attach-link wait as linkStats reports it, in the
            // directions the unflattened queries added them. Without
            // far links the far tier folds onto the near attach link.
            const std::vector<NocLinkStat> links = noc.linkStats();
            const auto attach_wait = [&](int c, bool far) {
                for (const NocLinkStat &link : links) {
                    if (link.memCtrl == c && link.far == far)
                        return link.waitCycles;
                }
                ADD_FAILURE() << "no attach link for ctrl " << c;
                return 0.0;
            };
            for (MemTier tier : {MemTier::Near, MemTier::Far}) {
                for (int c = 0; c < mesh.numMemCtrls(); c++) {
                    const TileId ct = mesh.memCtrlTile(c);
                    const double attach = attach_wait(
                        c, far_links && tier == MemTier::Far);
                    EXPECT_GT(attach, 0.0);
                    EXPECT_EQ(noc.walkPathWait(ct, ct), 0.0);
                    for (TileId t = 0; t < tiles; t++) {
                        EXPECT_EQ(noc.memPathWait(t, c, tier),
                                  noc.walkPathWait(t, ct) + attach);
                        EXPECT_EQ(noc.memResponsePathWait(c, t, tier),
                                  attach + noc.walkPathWait(ct, t));
                    }
                }
            }
        }
    }
}

TEST(ContentionNocTest, FlattenedWaitsTrackEveryEpochUpdate)
{
    // Tables must refresh on every epochUpdate, including after
    // clearTraffic (which keeps the waits).
    const Mesh mesh(4, 4);
    ContentionNoc noc(mesh, 1.0, 0.95);
    Rng rng(7);
    for (int epoch = 0; epoch < 4; epoch++) {
        for (int i = 0; i < 200; i++) {
            noc.addTraffic(
                TrafficClass::Other,
                static_cast<TileId>(rng.below(mesh.numTiles())),
                static_cast<TileId>(rng.below(mesh.numTiles())),
                1 + static_cast<std::uint32_t>(rng.below(4)));
        }
        noc.epochUpdate(500.0);
        if (epoch == 1)
            noc.clearTraffic();
        for (TileId a = 0; a < mesh.numTiles(); a++) {
            for (TileId b = 0; b < mesh.numTiles(); b++)
                EXPECT_EQ(noc.pathWait(a, b), noc.walkPathWait(a, b));
        }
    }
}

TEST(NocRegistryTest, BuiltInModelsRegistered)
{
    NocRegistry &registry = NocRegistry::instance();
    EXPECT_TRUE(registry.contains("zero-load"));
    EXPECT_TRUE(registry.contains("contention"));
    EXPECT_FALSE(registry.contains("no-such-model"));

    const Mesh mesh(4, 4);
    NocBuildParams params;
    params.injScale = 2.0;
    const auto zero = registry.build("zero-load", mesh, params);
    EXPECT_STREQ(zero->name(), "zero-load");
    const auto cont = registry.build("contention", mesh, params);
    EXPECT_STREQ(cont->name(), "contention");
    // Names are sorted and include both built-ins.
    const auto names = registry.names();
    ASSERT_GE(names.size(), 2u);
    for (std::size_t i = 1; i < names.size(); i++)
        EXPECT_LT(names[i - 1], names[i]);
}

} // anonymous namespace
} // namespace cdcs
