/**
 * @file
 * Per-access dynamics layer: drives one LLC access end to end through
 * the platform (policy mapping, bank lookup, demand moves, memory),
 * accounts latency/traffic/stats and models the per-tier
 * memory-bandwidth queues. Every LLC miss, plain or a demand move
 * that also misses its old bank, pays its off-chip leg through one
 * chargeMemLeg call, whichever tier serves it. Owns the per-thread
 * core clocks and the per-epoch access matrix the EpochController
 * feeds to the runtime.
 */

#ifndef CDCS_SIM_ACCESS_PATH_HH
#define CDCS_SIM_ACCESS_PATH_HH

#include <array>
#include <vector>

#include "sim/core_model.hh"
#include "sim/platform.hh"
#include "sim/run_stats.hh"
#include "workload/mix.hh"

namespace cdcs
{

/** The hot path: issues accesses and accrues timing state. */
class AccessPath
{
  public:
    /**
     * @param threadCore Live thread-to-core map (updated between
     *        epochs by the EpochController).
     * @param stats Shared run counters (reset at warmup boundary).
     */
    AccessPath(const SystemConfig &cfg, Platform &platform,
               WorkloadMix &mix, std::vector<TileId> &threadCore,
               RunStats &stats);

    /** Issue one access of thread t through the LLC. */
    void issueAccess(ThreadId t);

    /** Start a chunk: reset the per-chunk miss counter. */
    void beginChunk();

    /**
     * End a chunk: refresh the M/D/m memory queueing delays from the
     * miss rates observed between mean active cycles `before` and
     * `after` — one queue per tier, each sized by its own channel
     * count and service rate, so far-tier pressure never inflates the
     * near queue (and vice versa).
     */
    void endChunk(double before, double after);

    /**
     * Mean active cycles over the active thread clocks (all of them
     * on the static-traffic path; departed tenants' frozen clocks
     * are excluded under churn).
     */
    double meanActiveCycles() const;

    /// Per-thread performance state.
    std::vector<CoreClock> clocks;
    /// accessMatrix[t][vc]: accesses this epoch (runtime input).
    std::vector<std::vector<double>> accessMatrix;
    /// Aggregate-instruction bins for the IPC trace (traceIpc).
    std::vector<double> ipcBins;

  private:
    /**
     * Two-level placement of `line` when accessed by `core`:
     * delegated to the platform's MemPlacementPolicy (interleave by
     * default; first-touch and contention-rebalanced policies keep
     * their own page maps), which consults the attached tiering
     * policy for near/far residency. With no far tier the tier pins
     * MemTier::Near.
     */
    MemPlacement memPlaceFor(TileId core, LineAddr line);

    /** Account one memory access against its serving controller. */
    void noteMemAccess(int ctrl);

    /**
     * Charge one off-chip leg: the request from tile `from` to the
     * controller and tier of `mp`, the tier's service latency and
     * queueing delay, and the data response to tile `to`. Accounts
     * the NoC traffic, the per-tier miss and access counters and the
     * per-controller access count. Returns the leg's latency.
     */
    double chargeMemLeg(TileId from, MemPlacement mp, TileId to);

    const SystemConfig &cfg;
    Platform &platform;
    WorkloadMix &mix;
    std::vector<TileId> &threadCore;
    RunStats &stats;

    // Memory-bandwidth queueing state, indexed by tierIndex. With no
    // far tier every miss is near and only the near entries move.
    std::array<double, numMemTiers> queueDelay{};
    std::array<std::uint64_t, numMemTiers> chunkMisses{};

    std::uint64_t monitorTrafficSampleCtr = 0;
};

} // namespace cdcs

#endif // CDCS_SIM_ACCESS_PATH_HH
