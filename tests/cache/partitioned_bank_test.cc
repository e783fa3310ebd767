/**
 * @file
 * Tests for the Vantage-style partitioned bank: occupancy tracking,
 * target enforcement, victim selection, move/invalidate primitives and
 * conservation invariants (property-style sweeps via TEST_P).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "cache/partitioned_bank.hh"
#include "common/rng.hh"
#include "reference_bank.hh"

namespace cdcs
{
namespace
{

TEST(PartitionedBankTest, MissThenHit)
{
    PartitionedBank bank(1024, 16);
    const auto first = bank.access(0x10, 1, 0);
    EXPECT_FALSE(first.hit);
    const auto second = bank.access(0x10, 1, 0);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(bank.occupancy(1), 1u);
    EXPECT_EQ(bank.totalOccupancy(), 1u);
}

TEST(PartitionedBankTest, SharersAccumulate)
{
    PartitionedBank bank(1024, 16);
    bank.access(0x10, 1, 2);
    bank.access(0x10, 1, 5);
    CacheLine moved;
    ASSERT_TRUE(bank.extractForMove(0x10, moved));
    EXPECT_EQ(moved.sharers, (1ull << 2) | (1ull << 5));
}

TEST(PartitionedBankTest, TargetsEnforcedUnderContention)
{
    // Two VCs stream into one bank; VC 0 is entitled to 3/4, VC 1 to
    // 1/4. After warmup, occupancies should track targets closely.
    PartitionedBank bank(4096, 16);
    bank.setTarget(0, 3072);
    bank.setTarget(1, 1024);
    Rng rng(42);
    for (int i = 0; i < 200000; i++) {
        const VcId vc = rng.chance(0.5) ? 0 : 1;
        // Footprints far exceed targets so both VCs always insert.
        const LineAddr addr = (static_cast<LineAddr>(vc) << 32) |
            rng.below(65536);
        bank.access(addr, vc, 0);
    }
    EXPECT_NEAR(static_cast<double>(bank.occupancy(0)), 3072.0,
                3072.0 * 0.12);
    EXPECT_NEAR(static_cast<double>(bank.occupancy(1)), 1024.0,
                1024.0 * 0.25);
}

TEST(PartitionedBankTest, UnallocatedCapacityStaysUnused)
{
    // One VC with a small target: the bank must not fill beyond it
    // (plus set-level slack), modeling CDCS leaving capacity unused.
    PartitionedBank bank(4096, 16);
    bank.setTarget(7, 512);
    Rng rng(7);
    for (int i = 0; i < 100000; i++)
        bank.access(rng.below(1u << 20), 7, 0);
    EXPECT_LT(bank.totalOccupancy(), 1024u);
    EXPECT_GT(bank.totalOccupancy(), 256u);
}

TEST(PartitionedBankTest, ShrinkingTargetEvictsOverBudgetVc)
{
    PartitionedBank bank(2048, 16);
    bank.setTarget(0, 2048);
    for (LineAddr a = 0; a < 1500; a++)
        bank.access(a, 0, 0);
    const std::uint64_t before = bank.occupancy(0);
    EXPECT_GT(before, 1000u);

    // Shrink VC 0, grow VC 1; VC 1's insertions should displace VC 0.
    bank.setTarget(0, 256);
    bank.setTarget(1, 1792);
    for (LineAddr a = 0; a < 3000; a++)
        bank.access((1ull << 32) | a, 1, 0);
    EXPECT_LT(bank.occupancy(0), before);
    EXPECT_GT(bank.occupancy(1), 1000u);
}

TEST(PartitionedBankTest, ExtractForMoveInvalidates)
{
    PartitionedBank bank(1024, 16);
    bank.access(0x99, 2, 1);
    CacheLine moved;
    ASSERT_TRUE(bank.extractForMove(0x99, moved));
    EXPECT_EQ(moved.addr, 0x99u);
    EXPECT_EQ(moved.vc, 2);
    EXPECT_EQ(bank.occupancy(2), 0u);
    EXPECT_FALSE(bank.extractForMove(0x99, moved));
}

TEST(PartitionedBankTest, InstallMovedPreservesSharers)
{
    PartitionedBank src(1024, 16);
    PartitionedBank dst(1024, 16);
    src.access(0x7, 3, 4);
    src.access(0x7, 3, 9);
    CacheLine moved;
    ASSERT_TRUE(src.extractForMove(0x7, moved));
    dst.installMoved(moved, 3);
    EXPECT_TRUE(dst.probeHit(0x7, 3, 4));
    CacheLine again;
    ASSERT_TRUE(dst.extractForMove(0x7, again));
    EXPECT_EQ(again.sharers & ((1ull << 4) | (1ull << 9)),
              (1ull << 4) | (1ull << 9));
}

TEST(PartitionedBankTest, WalkInvalidateFiltersByPredicate)
{
    PartitionedBank bank(1024, 16);
    for (LineAddr a = 0; a < 500; a++)
        bank.access(a, a % 2, 0);
    std::uint64_t invalidated = 0;
    bank.resetWalk();
    const bool done = bank.walkInvalidate(
        bank.numSets(),
        [](const TagRecord &line) { return line.vc == 1; },
        invalidated);
    EXPECT_TRUE(done);
    EXPECT_EQ(invalidated, bank.numLines() ? 250u : 0u);
    EXPECT_EQ(bank.occupancy(1), 0u);
    EXPECT_EQ(bank.occupancy(0), 250u);
}

TEST(PartitionedBankTest, WalkIsIncremental)
{
    PartitionedBank bank(1024, 16);
    for (LineAddr a = 0; a < 600; a++)
        bank.access(a, 0, 0);
    std::uint64_t invalidated = 0;
    bank.resetWalk();
    bool done = bank.walkInvalidate(
        bank.numSets() / 2,
        [](const TagRecord &) { return true; }, invalidated);
    EXPECT_FALSE(done);
    EXPECT_GT(invalidated, 0u);
    EXPECT_LT(invalidated, 600u);
    done = bank.walkInvalidate(
        bank.numSets(), [](const TagRecord &) { return true; },
        invalidated);
    EXPECT_TRUE(done);
    EXPECT_EQ(bank.totalOccupancy(), 0u);
}

TEST(PartitionedBankTest, SetIndexIsStable)
{
    PartitionedBank bank(512, 4);
    for (LineAddr a = 0; a < 1000; a++)
        EXPECT_EQ(bank.setOf(a), bank.setOf(a));
}

TEST(PartitionedBankTest, SetHashSpreadsAddresses)
{
    PartitionedBank bank(512, 4);
    ASSERT_EQ(bank.numSets(), 128u);
    std::vector<int> counts(128, 0);
    for (LineAddr a = 0; a < 128 * 64; a++)
        counts[bank.setOf(a)]++;
    for (int c : counts) {
        EXPECT_GT(c, 16);
        EXPECT_LT(c, 192);
    }
}

TEST(PartitionedBankTest, ContainsTracksResidencyWithoutTouchingLru)
{
    // A 1-set, 4-way bank: the LRU line is the next victim.
    PartitionedBank bank(4, 4);
    EXPECT_FALSE(bank.contains(0x1));
    for (LineAddr a = 1; a <= 4; a++)
        bank.access(a, 0, 0);
    for (LineAddr a = 1; a <= 4; a++)
        EXPECT_TRUE(bank.contains(a));
    // contains() does not refresh line 1, so it is still the victim.
    const BankAccessResult res = bank.access(5, 0, 0);
    EXPECT_TRUE(res.evicted);
    EXPECT_EQ(res.evictedAddr, 1u);
    EXPECT_FALSE(bank.contains(1));
    EXPECT_TRUE(bank.invalidateLine(5));
    EXPECT_FALSE(bank.contains(5));
    EXPECT_FALSE(bank.invalidateLine(5));
}

TEST(PartitionedBankTest, HitRefreshesRecency)
{
    PartitionedBank bank(4, 4);
    for (LineAddr a = 1; a <= 4; a++)
        bank.access(a, 0, 0);
    EXPECT_TRUE(bank.probeHit(1, 0, 0));
    // Line 1 is now the most recent, so line 2 goes first.
    EXPECT_EQ(bank.access(5, 0, 0).evictedAddr, 2u);
    EXPECT_EQ(bank.access(6, 0, 0).evictedAddr, 3u);
}

TEST(PartitionedBankTest, InvalidateAllEmptiesTheBank)
{
    PartitionedBank bank(256, 4);
    for (LineAddr a = 0; a < 100; a++)
        bank.access(a, static_cast<VcId>(a % 4), 0);
    bank.invalidateAll();
    EXPECT_EQ(bank.totalOccupancy(), 0u);
    for (VcId vc = 0; vc < 4; vc++)
        EXPECT_EQ(bank.occupancy(vc), 0u);
    for (LineAddr a = 0; a < 100; a++)
        EXPECT_FALSE(bank.contains(a));
}

TEST(PartitionedBankTest, StampWrapKeepsEveryDecision)
{
    // Start the 32-bit LRU clock a few hundred touches short of its
    // limit, again and again, so the rank renormalisation runs many
    // times mid-sequence; every decision must still match the
    // reference model, which has no clock at all.
    constexpr std::uint32_t limit = std::numeric_limits<std::uint32_t>::max();
    for (const std::uint32_t ways : {4u, 16u}) {
        SCOPED_TRACE(::testing::Message() << ways << " ways");
        PartitionedBank bank(64 * ways, ways);
        test::ReferenceBank ref(64 * ways, ways);
        test::driveBoth(bank, ref, 99, 20000, 4, [&bank](int op) {
            if (op % 1500 == 700)
                bank.startClockAt(limit - 300);
        });
    }
}

/** Property sweep: occupancy bookkeeping is exactly conserved. */
class BankConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(BankConservation, OccupancySumsMatchValidLines)
{
    const int seed = GetParam();
    PartitionedBank bank(2048, 16);
    Rng rng(seed);
    const int num_vcs = 5;
    for (int d = 0; d < num_vcs; d++)
        bank.setTarget(d, 2048 / num_vcs);
    for (int i = 0; i < 50000; i++) {
        const auto vc = static_cast<VcId>(rng.below(num_vcs));
        const LineAddr addr =
            (static_cast<LineAddr>(vc) << 32) | rng.below(4096);
        bank.access(addr, vc, static_cast<TileId>(rng.below(8)));
        if (rng.chance(0.01)) {
            CacheLine moved;
            bank.extractForMove(addr, moved);
        }
        if (rng.chance(0.005))
            bank.invalidateLine(addr);
    }
    std::uint64_t occ_sum = 0;
    for (int d = 0; d < num_vcs; d++)
        occ_sum += bank.occupancy(d);
    EXPECT_EQ(occ_sum, bank.totalOccupancy());
    // Count the valid records themselves, not the occupancy counters.
    std::uint64_t valid = 0;
    std::uint64_t none = 0;
    bank.resetWalk();
    bank.walkInvalidate(
        bank.numSets(),
        [&valid](const TagRecord &) {
            valid++;
            return false;
        },
        none);
    EXPECT_EQ(occ_sum, valid);
    EXPECT_LE(occ_sum, bank.numLines());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BankConservation,
                         ::testing::Values(1, 2, 3, 11, 29));

} // anonymous namespace
} // namespace cdcs
