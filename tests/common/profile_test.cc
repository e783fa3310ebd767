/**
 * @file
 * Tests for the phase profiler behind `--set timing=1`: the disabled
 * default records nothing, snapshots sum over every thread that ever
 * recorded, and since() deltas window the monotonic counters.
 */

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/profile.hh"

namespace cdcs
{
namespace
{

using namespace std::chrono_literals;

/** Burn a small, measurable amount of wall time. */
void
spin(std::chrono::steady_clock::duration d)
{
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST(ProfilerTest, DisabledTimersRecordNothing)
{
    Profiler::setEnabled(false);
    const Profiler::Snapshot before = Profiler::snapshot();
    {
        ProfTimer timer(ProfPhase::Access);
        spin(1ms);
    }
    const auto delta = Profiler::snapshot().since(before);
    EXPECT_EQ(delta[ProfPhase::Access], 0u);
}

TEST(ProfilerTest, SnapshotSumsOverThreads)
{
    Profiler::setEnabled(true);
    const Profiler::Snapshot before = Profiler::snapshot();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([] {
            ProfTimer timer(ProfPhase::Reconfig);
            spin(2ms);
        });
    }
    for (auto &t : threads)
        t.join();
    Profiler::setEnabled(false);
    const auto delta = Profiler::snapshot().since(before);
    // Four threads each charged >= 2 ms; the sum sees all of them
    // even though the recording threads have exited.
    EXPECT_GE(delta[ProfPhase::Reconfig], 4u * 2'000'000u);
}

TEST(ProfilerTest, SinceWindowsTheMonotonicCounters)
{
    Profiler::setEnabled(true);
    {
        ProfTimer timer(ProfPhase::CacheIo);
        spin(1ms);
    }
    const Profiler::Snapshot mid = Profiler::snapshot();
    {
        ProfTimer timer(ProfPhase::CacheIo);
        spin(2ms);
    }
    Profiler::setEnabled(false);
    const auto delta = Profiler::snapshot().since(mid);
    // Only the second timer lands in the window.
    EXPECT_GE(delta[ProfPhase::CacheIo], 2'000'000u);
    EXPECT_GE(mid[ProfPhase::CacheIo], 1'000'000u);
}

} // anonymous namespace
} // namespace cdcs
