/**
 * @file
 * Pluggable network-on-chip model interface. The simulation layers
 * (AccessPath, EpochController) talk to a NocModel instead of doing
 * Mesh latency arithmetic directly, so the network model can range
 * from the paper's zero-load analytic mesh (Table 2) to a
 * contention-aware queueing model without touching the access flow.
 *
 * Every latency is the Mesh's zero-load latency plus a queueing wait,
 * computed once here: a model only answers the waits (pathWait,
 * memPathWait, memResponsePathWait) and, if it tracks links, accounts
 * each message through the routeMsg/routeMemMsg/routeMemResponse
 * hooks. A memory leg (tile <-> controller, incl. the attach link)
 * takes its MemTier as a parameter: a far tier is the same leg behind
 * a different attach link, never a second API. Contention state is
 * refreshed only at epoch boundaries (epochUpdate), never on the
 * access path, so wait queries stay table lookups.
 */

#ifndef CDCS_NET_NOC_MODEL_HH
#define CDCS_NET_NOC_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/mem_tier.hh"
#include "mesh/mesh.hh"

namespace cdcs
{

/** Accumulated load of one NoC link (post-warmup snapshot). */
struct NocLinkStat
{
    /** Upstream tile of the link. */
    TileId src = invalidTile;
    /** Downstream tile; invalidTile for a memory-attach link. */
    TileId dst = invalidTile;
    /** Controller index for attach links, -1 for mesh links. */
    int memCtrl = -1;
    /** Flits that traversed the link since the warmup boundary. */
    std::uint64_t flits = 0;
    /** Utilization at the last epoch update (after injection scaling). */
    double util = 0.0;
    /** Queueing wait (cycles) currently charged per traversal. */
    double waitCycles = 0.0;
    /** True for a far-tier attach link (memCtrl is the controller). */
    bool far = false;

    bool operator==(const NocLinkStat &) const = default;
};

/**
 * Interface of a network model: wait queries + per-link accounting
 * hooks + epoch-boundary contention refresh + stats snapshots.
 *
 * The base class owns the latency queries and the per-class flit-hop
 * counters every model reports (the Fig. 11d / 14 / 15b breakdowns).
 * The default waits answer 0 and the default hooks do nothing, so
 * the zero-load model overrides neither and pays nothing for them.
 */
class NocModel
{
  public:
    explicit NocModel(const Mesh &mesh) : topo(mesh) { flitHops.fill(0); }
    virtual ~NocModel() = default;

    NocModel(const NocModel &) = delete;
    NocModel &operator=(const NocModel &) = delete;

    /** Registry name of the model ("zero-load", "contention", ...). */
    virtual const char *name() const = 0;

    /** Latency of one message routed X-Y from src to dst. */
    double
    latency(TileId src, TileId dst, std::uint32_t payload_flits) const
    {
        return static_cast<double>(
                   topo.latency(topo.hops(src, dst), payload_flits)) +
            pathWait(src, dst);
    }

    /**
     * Latency of one message from a tile to memory controller `ctrl`,
     * including the attach link of `tier` (the +1 hop of
     * Mesh::hopsToCtrl). Both tiers hang off the controller's tile,
     * so the hop count is the tier-independent part.
     */
    double
    memLatency(TileId tile, int ctrl, std::uint32_t payload_flits,
               MemTier tier = MemTier::Near) const
    {
        return static_cast<double>(topo.latency(
                   topo.hopsToCtrl(tile, ctrl), payload_flits)) +
            memPathWait(tile, ctrl, tier);
    }

    /**
     * Latency of one response from memory controller `ctrl` to a
     * tile (attach link of `tier`, then the reverse-direction route).
     */
    double
    memResponseLatency(int ctrl, TileId tile,
                       std::uint32_t payload_flits,
                       MemTier tier = MemTier::Near) const
    {
        return static_cast<double>(topo.latency(
                   topo.hopsToCtrl(tile, ctrl), payload_flits)) +
            memResponsePathWait(ctrl, tile, tier);
    }

    /** Account one tile-to-tile message of a given class. */
    void
    addTraffic(TrafficClass cls, TileId src, TileId dst,
               std::uint32_t flits)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(topo.hops(src, dst)) * flits;
        routeMsg(src, dst, flits);
    }

    /**
     * Account one tile-to-memory-controller message entering the
     * attach link of `tier`. The hop count is the same for both
     * tiers; only the per-link routing differs.
     */
    void
    addMemTraffic(TrafficClass cls, TileId tile, int ctrl,
                  std::uint32_t flits, MemTier tier = MemTier::Near)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(topo.hopsToCtrl(tile, ctrl)) *
            flits;
        routeMemMsg(tile, ctrl, flits, tier);
    }

    /**
     * Account one controller-to-tile response (incl. attach). Routes
     * are X-Y symmetric in hop count, so the per-class flit-hop
     * totals match addMemTraffic; models with directed per-link
     * accounting charge the reverse-direction links instead.
     */
    void
    addMemResponse(TrafficClass cls, int ctrl, TileId tile,
                   std::uint32_t flits, MemTier tier = MemTier::Near)
    {
        flitHops[static_cast<std::size_t>(cls)] +=
            static_cast<std::uint64_t>(topo.hopsToCtrl(tile, ctrl)) *
            flits;
        routeMemResponse(ctrl, tile, flits, tier);
    }

    /**
     * Queueing wait (cycles) currently charged on top of the
     * zero-load latency along the X-Y route src -> dst. This is the
     * query the reconfiguration runtime's PlacementCostModel snapshots
     * each epoch, so placement sees the same contention the access
     * path pays. Zero-load models answer 0.
     */
    virtual double
    pathWait(TileId src, TileId dst) const
    {
        (void)src;
        (void)dst;
        return 0.0;
    }

    /**
     * Queueing wait (cycles) on the route from a tile to memory
     * controller `ctrl`, including `tier`'s attach link. Zero-load
     * models answer 0.
     */
    virtual double
    memPathWait(TileId tile, int ctrl, MemTier tier) const
    {
        (void)tile;
        (void)ctrl;
        (void)tier;
        return 0.0;
    }

    /**
     * Queueing wait (cycles) on the response route from memory
     * controller `ctrl` back to a tile (`tier`'s attach link + the
     * reverse-direction mesh links). Zero-load models answer 0.
     */
    virtual double
    memResponsePathWait(int ctrl, TileId tile, MemTier tier) const
    {
        (void)ctrl;
        (void)tile;
        (void)tier;
        return 0.0;
    }

    /**
     * Epoch boundary: refresh contention state from the loads
     * measured over the last `elapsed_cycles` mean active cycles.
     * Zero-load models ignore it.
     */
    virtual void epochUpdate(double elapsed_cycles)
    {
        (void)elapsed_cycles;
    }

    /** Reset traffic counters (warmup boundary). */
    virtual void clearTraffic() { flitHops.fill(0); }

    /** Accumulated flit-hops for a class. */
    std::uint64_t
    trafficFlitHops(TrafficClass cls) const
    {
        return flitHops[static_cast<std::size_t>(cls)];
    }

    /** Total accumulated flit-hops. */
    std::uint64_t
    totalFlitHops() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t f : flitHops)
            sum += f;
        return sum;
    }

    /** Per-link loads; empty for models that don't track links. */
    virtual std::vector<NocLinkStat> linkStats() const { return {}; }

    const Mesh &mesh() const { return topo; }

  protected:
    /** Per-link accounting hook for one X-Y routed message. */
    virtual void
    routeMsg(TileId src, TileId dst, std::uint32_t flits)
    {
        (void)src;
        (void)dst;
        (void)flits;
    }

    /** Per-link hook for one memory leg (+ `tier`'s attach link). */
    virtual void
    routeMemMsg(TileId tile, int ctrl, std::uint32_t flits,
                MemTier tier)
    {
        (void)tile;
        (void)ctrl;
        (void)flits;
        (void)tier;
    }

    /** Per-link hook for one memory response (attach link + route). */
    virtual void
    routeMemResponse(int ctrl, TileId tile, std::uint32_t flits,
                     MemTier tier)
    {
        (void)ctrl;
        (void)tile;
        (void)flits;
        (void)tier;
    }

    const Mesh &topo;

  private:
    std::array<std::uint64_t,
               static_cast<std::size_t>(TrafficClass::NumClasses)>
        flitHops;
};

} // namespace cdcs

#endif // CDCS_NET_NOC_MODEL_HH
