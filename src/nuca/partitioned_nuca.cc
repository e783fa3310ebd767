#include "nuca/partitioned_nuca.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/log.hh"

namespace cdcs
{

PartitionedNucaPolicy::PartitionedNucaPolicy(
    const Mesh *mesh_ptr, int banks_per_tile, std::uint64_t bank_lines,
    std::uint32_t bank_sets, std::vector<ThreadVcWiring> wiring_in,
    int num_vcs, ReconfigRuntime *runtime_ptr, PartitionedNucaConfig config)
    : mesh(mesh_ptr), banksPerTile(banks_per_tile), bankLines(bank_lines),
      bankSets(bank_sets), wiring(std::move(wiring_in)), numVcs(num_vcs),
      runtime(runtime_ptr), cfg(config)
{
    cdcs_assert(runtime != nullptr, "partitioned NUCA needs a runtime");
    descriptors.resize(numVcs);

    // Before the first reconfiguration, spread every VC across all
    // banks (an S-NUCA-like bootstrap configuration: no monitor data
    // exists yet).
    const int num_banks = mesh->numTiles() * banksPerTile;
    std::vector<double> even(num_banks, 1.0);
    const VcDescriptor bootstrap = VcDescriptor::fromShares(even);
    for (auto &desc : descriptors)
        desc = bootstrap;

    vtbs.resize(wiring.size());
    for (std::size_t t = 0; t < wiring.size(); t++) {
        vtbs[t].install(wiring[t].privateVc,
                        descriptors[wiring[t].privateVc]);
        vtbs[t].install(wiring[t].processVc,
                        descriptors[wiring[t].processVc]);
        vtbs[t].install(wiring[t].globalVc,
                        descriptors[wiring[t].globalVc]);
    }

    currentAlloc.assign(numVcs, std::vector<double>(num_banks, 0.0));
}

MapResult
PartitionedNucaPolicy::map(ThreadId thread, TileId /*core*/, VcId vc,
                           LineAddr line)
{
    cdcs_assert(thread < vtbs.size(), "thread out of range");
    const VtbLookup lookup = vtbs[thread].lookup(vc, line);
    MapResult res;
    res.bank = lookup.bank;
    if (walkActive)
        res.oldBank = lookup.oldBank;
    return res;
}

void
PartitionedNucaPolicy::applyAllocation(
    const std::vector<std::vector<double>> &alloc,
    std::vector<PartitionedBank> &banks)
{
    cdcs_assert(static_cast<int>(alloc.size()) == numVcs,
                "allocation matrix has wrong VC count");
    for (int d = 0; d < numVcs; d++) {
        if (configured) {
            // Hysteresis: ignore changes smaller than a fraction of
            // the VC's size so steady-state VCs keep their data.
            double diff = 0.0, size = 0.0;
            for (std::size_t b = 0; b < alloc[d].size(); b++) {
                diff += std::abs(alloc[d][b] - currentAlloc[d][b]);
                size += alloc[d][b];
            }
            if (diff <= cfg.allocHysteresis * std::max(size, 1.0))
                continue;
            if (std::getenv("CDCS_DEBUG_RECONFIG") != nullptr) {
                std::fprintf(stderr,
                             "reconfig: vc %d remapped, size %.0f, "
                             "diff %.0f\n",
                             d, size, diff);
            }
        }
        currentAlloc[d] = alloc[d];
        descriptors[d] = VcDescriptor::fromShares(alloc[d]);
    }
    configured = true;
    // Every VC gets an explicit target in every bank (zero where it
    // has no allocation): lines stranded by a previous configuration
    // become preferred victims immediately.
    for (std::size_t b = 0; b < banks.size(); b++) {
        banks[b].clearTargets();
        for (int d = 0; d < numVcs; d++) {
            banks[b].setTarget(
                static_cast<VcId>(d),
                static_cast<std::uint64_t>(currentAlloc[d][b]));
        }
    }
}

std::uint64_t
PartitionedNucaPolicy::relocateInstant(std::vector<PartitionedBank> &banks)
{
    // Collect every out-of-place line first, then install, so a moved
    // line is never re-examined mid-walk.
    std::vector<CacheLine> movers;
    for (std::size_t b = 0; b < banks.size(); b++) {
        banks[b].resetWalk();
        banks[b].walkCollect(banks[b].numSets(), movedAway(b),
                             movers);
    }
    for (const CacheLine &line : movers) {
        const TileId home = homeBank(line.vc, line.addr);
        banks[home].installMoved(line, line.vc);
    }
    return movers.size();
}

std::uint64_t
PartitionedNucaPolicy::invalidateBulk(std::vector<PartitionedBank> &banks)
{
    std::uint64_t invalidated = 0;
    for (std::size_t b = 0; b < banks.size(); b++) {
        banks[b].resetWalk();
        banks[b].walkInvalidate(banks[b].numSets(), movedAway(b),
                                invalidated);
    }
    return invalidated;
}

EpochDirective
PartitionedNucaPolicy::endEpoch(const RuntimeInput &input,
                                std::vector<PartitionedBank> &banks)
{
    // If a previous background walk is still in flight, finish it
    // before reprogramming descriptors (reconfigurations are spaced
    // far enough apart that this only triggers in stress tests).
    if (walkActive) {
        std::uint64_t dropped = 0;
        for (std::size_t b = 0; b < banks.size(); b++) {
            banks[b].walkInvalidate(banks[b].numSets(), movedAway(b),
                                    dropped);
        }
        for (auto &vtb : vtbs)
            vtb.finishReconfig();
        walkActive = false;
    }

    EpochDirective directive;
    directive.reconfigured = true;

    RuntimeOutput out = runtime->reconfigure(input);
    directive.times = out.times;
    directive.newThreadCore = out.threadCore;

    applyAllocation(out.alloc, banks);

    switch (cfg.moves) {
      case MoveScheme::Instant:
        for (std::size_t t = 0; t < vtbs.size(); t++) {
            vtbs[t].install(wiring[t].privateVc,
                            descriptors[wiring[t].privateVc]);
            vtbs[t].install(wiring[t].processVc,
                            descriptors[wiring[t].processVc]);
            vtbs[t].install(wiring[t].globalVc,
                            descriptors[wiring[t].globalVc]);
        }
        directive.movedLines = relocateInstant(banks);
        break;

      case MoveScheme::BulkInvalidate:
        for (std::size_t t = 0; t < vtbs.size(); t++) {
            vtbs[t].install(wiring[t].privateVc,
                            descriptors[wiring[t].privateVc]);
            vtbs[t].install(wiring[t].processVc,
                            descriptors[wiring[t].processVc]);
            vtbs[t].install(wiring[t].globalVc,
                            descriptors[wiring[t].globalVc]);
        }
        directive.invalidatedLines = invalidateBulk(banks);
        // All bank walkers run in parallel; cores pause for one full
        // array walk (Sec. IV-H / Sec. VI-C: ~100 Kcycles).
        directive.pauseCycles =
            static_cast<Cycles>(bankSets) * cfg.bulkCyclesPerSet;
        break;

      case MoveScheme::DemandBackground:
      case MoveScheme::BackgroundMoves:
        for (std::size_t t = 0; t < vtbs.size(); t++) {
            vtbs[t].beginReconfig(wiring[t].privateVc,
                                  descriptors[wiring[t].privateVc]);
            vtbs[t].beginReconfig(wiring[t].processVc,
                                  descriptors[wiring[t].processVc]);
            vtbs[t].beginReconfig(wiring[t].globalVc,
                                  descriptors[wiring[t].globalVc]);
        }
        for (auto &bank : banks)
            bank.resetWalk();
        walkActive = true;
        setsWalked = 0;
        break;
    }
    return directive;
}

std::uint64_t
PartitionedNucaPolicy::advanceWalk(Cycles elapsed,
                                   std::vector<PartitionedBank> &banks)
{
    if (!walkActive)
        return 0;
    if (elapsed <= cfg.walkDelay)
        return 0;
    const Cycles walking = elapsed - cfg.walkDelay;
    const auto target = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(walking / cfg.walkCyclesPerSet, bankSets));
    if (target <= setsWalked)
        return 0;
    const std::uint32_t delta = target - setsWalked;

    std::uint64_t invalidated = 0;
    if (cfg.moves == MoveScheme::BackgroundMoves) {
        // Sec. IV-H ablation: the walker sends lines to their new
        // homes instead of dropping them. Collect from every bank
        // first so a moved line is not re-examined mid-walk.
        std::vector<CacheLine> movers;
        for (std::size_t b = 0; b < banks.size(); b++) {
            banks[b].walkCollect(delta, movedAway(b), movers);
        }
        for (const CacheLine &line : movers) {
            banks[homeBank(line.vc, line.addr)].installMoved(line,
                                                             line.vc);
        }
        invalidated = movers.size();
    } else {
        for (std::size_t b = 0; b < banks.size(); b++) {
            banks[b].walkInvalidate(delta, movedAway(b),
                                    invalidated);
        }
    }
    setsWalked = target;
    if (setsWalked >= bankSets) {
        for (auto &vtb : vtbs)
            vtb.finishReconfig();
        walkActive = false;
    }
    return invalidated;
}

const VcDescriptor &
PartitionedNucaPolicy::descriptor(VcId vc) const
{
    cdcs_assert(vc < descriptors.size(), "VC out of range");
    return descriptors[vc];
}

} // namespace cdcs
