/**
 * @file
 * Tests for PageTable: seeded random tryEmplace/find sequences replayed
 * against a std::map reference over several VCs, with dense and sparse
 * page offsets, checking inserted flags, values, size(), forEach order
 * and pointer stability across later inserts.
 */

#include <cstdint>
#include <map>

#include <gtest/gtest.h>

#include "common/page_table.hh"
#include "common/rng.hh"
#include "workload/mix.hh"

namespace cdcs
{
namespace
{

constexpr unsigned vcShift = PageTable<int>::vcShift;

std::uint64_t
pageOf(VcId vc, std::uint64_t offset)
{
    return WorkloadMix::lineIn(vc, offset << pageLineShift) >>
        pageLineShift;
}

/**
 * Replay `ops` random operations over pages drawn by `draw` against a
 * std::map, checking every result, then the full contents and order.
 */
template <typename Draw>
void
replayAgainstMap(std::uint64_t seed, int ops, Draw &&draw)
{
    Rng rng(seed);
    PageTable<std::uint64_t> table;
    std::map<std::uint64_t, std::uint64_t> ref;
    std::map<std::uint64_t, const std::uint64_t *> where;
    for (int i = 0; i < ops; i++) {
        const std::uint64_t page = draw(rng);
        if (rng.chance(0.3)) {
            const std::uint64_t *found = table.find(page);
            const auto it = ref.find(page);
            ASSERT_EQ(found != nullptr, it != ref.end()) << page;
            if (found != nullptr) {
                EXPECT_EQ(*found, it->second);
                EXPECT_EQ(found, where[page]);
            }
            continue;
        }
        const auto [value, inserted] = table.tryEmplace(page);
        const auto [it, ref_inserted] = ref.try_emplace(page, 0);
        ASSERT_EQ(inserted, ref_inserted) << page;
        if (inserted) {
            EXPECT_EQ(*value, 0u) << "fresh entries start default";
            where[page] = value;
        } else {
            EXPECT_EQ(value, where[page]) << "entry moved";
        }
        EXPECT_EQ(*value, it->second);
        const std::uint64_t bump = rng.next();
        *value += bump;
        it->second += bump;
        ASSERT_EQ(table.size(), ref.size());
    }

    // Every entry is still where it was first handed out, with the
    // reference's value, and forEach walks them in the map's order.
    auto expect = ref.begin();
    std::size_t visited = 0;
    table.forEach([&](std::uint64_t page, std::uint64_t &value) {
        ASSERT_NE(expect, ref.end());
        EXPECT_EQ(page, expect->first);
        EXPECT_EQ(value, expect->second);
        EXPECT_EQ(&value, where[page]);
        ++expect;
        visited++;
    });
    EXPECT_EQ(expect, ref.end());
    EXPECT_EQ(visited, table.size());
}

TEST(PageTableTest, DenseOffsetsMatchMap)
{
    // A few thousand pages per VC, revisited often: the footprint
    // shape of the workload generators.
    for (std::uint64_t seed : {1, 2, 3}) {
        replayAgainstMap(seed, 40000, [](Rng &rng) {
            const auto vc = static_cast<VcId>(rng.below(5));
            return pageOf(vc, rng.below(3000));
        });
    }
}

TEST(PageTableTest, SparseOffsetsMatchMap)
{
    // Pages scattered over a wide span, most chunks holding one or
    // two entries: the overlay's hashed hot-set seats.
    for (std::uint64_t seed : {4, 5}) {
        replayAgainstMap(seed, 20000, [](Rng &rng) {
            const VcId vc = rng.chance(0.5) ? 0 : 512;
            return pageOf(vc, rng.below(std::uint64_t{1} << 20));
        });
    }
}

TEST(PageTableTest, ExtremeVcsAndChunkEdges)
{
    // The highest VC id and offsets at chunk boundaries.
    const std::uint64_t chunk = PageTable<int>::chunkPages;
    replayAgainstMap(6, 5000, [&](Rng &rng) {
        const VcId vc = rng.chance(0.5) ? 0xFFFF : 7;
        const std::uint64_t c = rng.below(8);
        const std::uint64_t edge = rng.chance(0.5) ? 0 : chunk - 1;
        return pageOf(vc, c * chunk + edge);
    });
}

TEST(PageTableTest, EmptyTable)
{
    PageTable<int> table;
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.find(0), nullptr);
    EXPECT_EQ(table.find(pageOf(3, 12345)), nullptr);
    int calls = 0;
    table.forEach([&](std::uint64_t, int &) { calls++; });
    EXPECT_EQ(calls, 0);
}

TEST(PageTableTest, FindDoesNotInsert)
{
    PageTable<int> table;
    *table.tryEmplace(pageOf(2, 10)).first = 7;
    // Same chunk, different slot: the chunk exists but the page not.
    EXPECT_EQ(table.find(pageOf(2, 11)), nullptr);
    EXPECT_EQ(table.size(), 1u);
    ASSERT_NE(table.find(pageOf(2, 10)), nullptr);
    EXPECT_EQ(*table.find(pageOf(2, 10)), 7);
}

TEST(PageTableTest, PageOutsideVcSpaceAsserts)
{
    PageTable<int> table;
    const std::uint64_t too_high =
        (std::uint64_t{0xFFFF} + 1) << vcShift;
    EXPECT_DEATH(table.tryEmplace(too_high), "VcId");
}

} // anonymous namespace
} // namespace cdcs
