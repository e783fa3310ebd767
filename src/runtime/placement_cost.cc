#include "runtime/placement_cost.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "net/noc_model.hh"

namespace cdcs
{

TileId
PlacementCostModel::nearestTile(double x, double y) const
{
    const int tx = std::clamp(
        static_cast<int>(std::lround(x)), 0, topo->width() - 1);
    const int ty = std::clamp(
        static_cast<int>(std::lround(y)), 0, topo->height() - 1);
    return topo->tileAt(tx, ty);
}

namespace
{

/**
 * Wait quantum in hop units. The placement pipeline's epoch-to-epoch
 * stability rests on exact ties resolved by deterministic tie-breaks
 * (anchor affinity, footprint compactness, current-core hysteresis);
 * continuous wait values would break every such tie and let
 * noise-level wait differences reshuffle placements each epoch.
 * Quantizing to quarter-hops (the same granularity as the anchor and
 * contention quanta) keeps near-idle routes indistinguishable from
 * zero-load while genuine saturation — M/D/1 waits of whole hops —
 * still steers placement.
 */
constexpr double waitQuantumHops = 0.25;

double
quantizeWait(double wait_hops)
{
    return std::floor(wait_hops / waitQuantumHops) * waitQuantumHops;
}

} // anonymous namespace

PlacementCostModel
PlacementCostModel::fromNoc(const NocModel &noc, double hop_cycles,
                            const PlacementCostModel *prev,
                            double alpha)
{
    cdcs_assert(hop_cycles > 0.0, "hop cycles must be positive");
    const Mesh &mesh = noc.mesh();
    PlacementCostModel cost(mesh, hop_cycles);

    // An access charges its control flit on the request route and
    // its data flits on the response route (the NoC's links are
    // directed), so the per-flit wait of a (src, dst) pair blends
    // both directions by their flit shares.
    const double ctrl_flits =
        static_cast<double>(mesh.config().ctrlFlits());
    const double data_flits =
        static_cast<double>(mesh.config().dataFlits());
    const double msg_flits = ctrl_flits + data_flits;

    const auto num_tiles = static_cast<std::size_t>(mesh.numTiles());
    std::vector<double> pair_waits(num_tiles * num_tiles, 0.0);
    for (TileId a = 0; a < mesh.numTiles(); a++) {
        for (TileId b = 0; b < mesh.numTiles(); b++) {
            pair_waits[static_cast<std::size_t>(a) * num_tiles +
                       static_cast<std::size_t>(b)] =
                (ctrl_flits * noc.pathWait(a, b) +
                 data_flits * noc.pathWait(b, a)) /
                (msg_flits * hop_cycles);
        }
    }

    std::vector<double> mem_waits(num_tiles, 0.0);
    const int ctrls = mesh.numMemCtrls();
    for (TileId t = 0; t < mesh.numTiles(); t++) {
        double sum = 0.0;
        for (int c = 0; c < ctrls; c++) {
            sum += (ctrl_flits * noc.memPathWait(t, c, MemTier::Near) +
                    data_flits *
                        noc.memResponsePathWait(c, t, MemTier::Near)) /
                msg_flits;
        }
        mem_waits[static_cast<std::size_t>(t)] =
            sum / (hop_cycles * static_cast<double>(ctrls));
    }

    // Flit-weighted mean *mesh*-link wait: what the average flit pays
    // per traversed on-chip link, the chip-wide congestion scalar the
    // optimistic compact-footprint distance is inflated by. Memory
    // attach links are excluded — their (often clamped) waits are
    // charged through avgMemDist's mem-route term, not through the
    // on-chip spread of an allocation.
    double wait_flits = 0.0;
    double flits = 0.0;
    for (const NocLinkStat &link : noc.linkStats()) {
        if (link.memCtrl >= 0)
            continue;
        wait_flits +=
            link.waitCycles * static_cast<double>(link.flits);
        flits += static_cast<double>(link.flits);
    }
    double mean_wait =
        flits > 0.0 ? wait_flits / (flits * hop_cycles) : 0.0;

    // EWMA against the previous snapshot's raw waits: damp the
    // placement <-> contention feedback loop before quantization.
    if (prev != nullptr && alpha < 1.0 &&
        prev->rawPairWaitHops.size() == pair_waits.size() &&
        prev->rawMemWaitHops.size() == mem_waits.size()) {
        for (std::size_t i = 0; i < pair_waits.size(); i++) {
            pair_waits[i] = alpha * pair_waits[i] +
                (1.0 - alpha) * prev->rawPairWaitHops[i];
        }
        for (std::size_t i = 0; i < mem_waits.size(); i++) {
            mem_waits[i] = alpha * mem_waits[i] +
                (1.0 - alpha) * prev->rawMemWaitHops[i];
        }
        mean_wait = alpha * mean_wait +
            (1.0 - alpha) * prev->rawMeanWaitPerHop;
    }

    cost.rawPairWaitHops = std::move(pair_waits);
    cost.rawMemWaitHops = std::move(mem_waits);
    cost.rawMeanWaitPerHop = mean_wait;

    // Quantize into the query tables; if every wait quantizes to
    // zero the snapshot stays a zero-wait oracle (pure Mesh
    // arithmetic), which keeps near-idle networks byte-identical to
    // the zero-load model.
    bool any = false;
    std::vector<double> q_pair(cost.rawPairWaitHops.size(), 0.0);
    for (std::size_t i = 0; i < q_pair.size(); i++) {
        q_pair[i] = quantizeWait(cost.rawPairWaitHops[i]);
        any = any || q_pair[i] > 0.0;
    }
    std::vector<double> q_mem(cost.rawMemWaitHops.size(), 0.0);
    for (std::size_t i = 0; i < q_mem.size(); i++) {
        q_mem[i] = quantizeWait(cost.rawMemWaitHops[i]);
        any = any || q_mem[i] > 0.0;
    }
    if (!any)
        return cost;

    cost.contendedWaits = true;
    cost.pairWaitHops = std::move(q_pair);
    cost.memWaitHops = std::move(q_mem);
    cost.meanWaitPerHop = quantizeWait(mean_wait);
    return cost;
}

} // namespace cdcs
