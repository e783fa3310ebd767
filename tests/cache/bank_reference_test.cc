/**
 * @file
 * Differential test: PartitionedBank against the naive reference
 * model (reference_bank.hh) over seeded random operation sequences,
 * across geometries from 4 to 16 ways.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "reference_bank.hh"

namespace cdcs
{
namespace
{

/** (lines, ways, VCs, seed). */
using Geometry = std::tuple<std::uint64_t, std::uint32_t, int, int>;

class BankMatchesReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(BankMatchesReference, EveryOperationAgrees)
{
    const auto [lines, ways, num_vcs, seed] = GetParam();
    PartitionedBank bank(lines, ways);
    test::ReferenceBank ref(lines, ways);
    test::driveBoth(bank, ref, static_cast<std::uint64_t>(seed), 20000,
                    num_vcs);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BankMatchesReference,
    ::testing::Values(Geometry{256, 4, 3, 1}, Geometry{256, 4, 6, 2},
                      Geometry{512, 16, 5, 3}, Geometry{1024, 16, 8, 4},
                      Geometry{64, 8, 2, 5}, Geometry{2048, 16, 4, 6}));

} // anonymous namespace
} // namespace cdcs
