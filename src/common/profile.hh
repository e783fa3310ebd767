/**
 * @file
 * Lightweight phase profiler behind the `--set timing=1` study knob.
 * Worker threads accumulate wall time into thread-local counters, one
 * per coarse simulator phase (access path, runtime reconfiguration,
 * result-cache I/O), and runStudy snapshots the process-wide sums
 * around each study to print the timing footer.
 *
 * No phase is finer than an epoch's access loop, a reconfiguration or
 * a store call, so enabled timers cost little next to what they time;
 * per-access host costs are perfbench's job. Disabled (the default) a
 * timer is a single relaxed load. Timings never reach the simulation.
 */

#ifndef CDCS_COMMON_PROFILE_HH
#define CDCS_COMMON_PROFILE_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/trace.hh"

namespace cdcs
{

/** Coarse simulator phases the timing footer breaks down. */
enum class ProfPhase : int
{
    Access = 0,  ///< AccessPath chunk execution.
    Reconfig,    ///< Epoch-boundary runtime reconfiguration.
    CacheIo,     ///< Persistent result-store reads/writes.
    NumPhases
};

/** Stable phase label, used by the footer and the execution tracer. */
constexpr const char *
profPhaseName(ProfPhase phase)
{
    switch (phase) {
      case ProfPhase::Access:
        return "access";
      case ProfPhase::Reconfig:
        return "reconfig";
      case ProfPhase::CacheIo:
        return "cache-io";
      default:
        return "?";
    }
}

/** Process-wide phase-time accumulator (thread-local counters). */
class Profiler
{
  public:
    static constexpr std::size_t numPhases =
        static_cast<std::size_t>(ProfPhase::NumPhases);

    /** Accumulated nanoseconds per phase, summed over all threads. */
    struct Snapshot
    {
        std::array<std::uint64_t, numPhases> ns{};

        std::uint64_t
        operator[](ProfPhase phase) const
        {
            return ns[static_cast<std::size_t>(phase)];
        }

        /** Per-phase difference vs. an earlier snapshot. */
        Snapshot
        since(const Snapshot &earlier) const
        {
            Snapshot delta;
            for (std::size_t p = 0; p < numPhases; p++)
                delta.ns[p] = ns[p] - earlier.ns[p];
            return delta;
        }
    };

    static bool
    enabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    static void
    setEnabled(bool on)
    {
        enabledFlag.store(on, std::memory_order_relaxed);
    }

    /** Add `ns` nanoseconds to this thread's counter for `phase`. */
    static void
    add(ProfPhase phase, std::uint64_t ns)
    {
        local().ns[static_cast<std::size_t>(phase)].fetch_add(
            ns, std::memory_order_relaxed);
    }

    /** Sum the counters of every thread that ever recorded time. */
    static Snapshot
    snapshot()
    {
        Snapshot snap;
        std::lock_guard<std::mutex> lock(registryMu());
        for (const Counters *block : registry()) {
            for (std::size_t p = 0; p < numPhases; p++) {
                snap.ns[p] += block->ns[p].load(
                    std::memory_order_relaxed);
            }
        }
        return snap;
    }

  private:
    struct Counters
    {
        std::array<std::atomic<std::uint64_t>, numPhases> ns{};
    };

    /**
     * This thread's counter block, registered globally on first use.
     * Blocks are intentionally never freed: snapshot() must still see
     * the time recorded by pool workers that have since exited, and
     * the leak is bounded by the thread count.
     */
    static Counters &
    local()
    {
        thread_local Counters *block = []() {
            auto *fresh = new Counters();
            std::lock_guard<std::mutex> lock(registryMu());
            registry().push_back(fresh);
            return fresh;
        }();
        return *block;
    }

    static std::mutex &
    registryMu()
    {
        static std::mutex mu;
        return mu;
    }

    // Heap-allocated and never destroyed: if the vector were a
    // plain static it would be destroyed at exit and drop the only
    // references to the counter blocks, which LeakSanitizer would
    // then report as leaks.
    static std::vector<Counters *> &
    registry()
    {
        static auto *blocks = new std::vector<Counters *>();
        return *blocks;
    }

    static inline std::atomic<bool> enabledFlag{false};
};

/**
 * Scoped timer charging its lifetime to one phase (when the profiler
 * is enabled) and emitting a tracer span (when a trace file is open).
 * Both default off to two relaxed loads.
 */
class ProfTimer
{
  public:
    explicit ProfTimer(ProfPhase phase_)
        : phase(phase_), active(Profiler::enabled()),
          tracing(Tracer::enabled())
    {
        if (active)
            start = std::chrono::steady_clock::now(); // lint:allow(wallclock)
        if (tracing)
            Tracer::begin(profPhaseName(phase_));
    }

    ~ProfTimer()
    {
        if (tracing)
            Tracer::end(profPhaseName(phase));
        if (!active)
            return;
        const auto elapsed = // lint:allow(wallclock)
            std::chrono::steady_clock::now() - start;
        Profiler::add(
            phase,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed)
                    .count()));
    }

    ProfTimer(const ProfTimer &) = delete;
    ProfTimer &operator=(const ProfTimer &) = delete;

  private:
    ProfPhase phase;
    bool active;
    bool tracing;
    std::chrono::steady_clock::time_point start;
};

} // namespace cdcs

#endif // CDCS_COMMON_PROFILE_HH
