#include "cache/partitioned_bank.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/log.hh"

namespace cdcs
{

PartitionedBank::PartitionedBank(std::uint64_t num_lines,
                                 std::uint32_t num_ways,
                                 std::uint64_t hash_seed)
    : sets(static_cast<std::uint32_t>(num_ways > 0 ? num_lines / num_ways
                                                   : 0)),
      ways(num_ways), seed(hash_seed), records(num_lines),
      // Entry 0 exists from the start: invalid records carry vc 0, and
      // victim selection reads their VC's flag without a bounds check.
      vcOccupancy(1, 0), vcTarget(1, unmanagedTarget), vcOverBudget(1, 0)
{
    cdcs_assert(ways > 0, "associativity must be positive");
    cdcs_assert(num_lines % num_ways == 0,
                "bank lines must be a multiple of associativity");
    cdcs_assert(sets > 0 && (sets & (sets - 1)) == 0,
                "set count must be a power of two");
}

void
PartitionedBank::growTables(VcId vc)
{
    if (vc >= vcOccupancy.size()) {
        vcOccupancy.resize(vc + 1, 0);
        vcTarget.resize(vc + 1, unmanagedTarget);
        vcOverBudget.resize(vc + 1, 0);
    }
}

TagRecord *
PartitionedBank::find(LineAddr addr)
{
    return const_cast<TagRecord *>(std::as_const(*this).find(addr));
}

const TagRecord *
PartitionedBank::find(LineAddr addr) const
{
    const TagRecord *set = setBase(setOf(addr));
    for (std::uint32_t w = 0; w < ways; w++) {
        if (set[w].addr == addr && set[w].stamp != 0)
            return &set[w];
    }
    return nullptr;
}

std::uint32_t
PartitionedBank::touch()
{
    if (lruClock == std::numeric_limits<std::uint32_t>::max())
        renormalizeStamps();
    return ++lruClock;
}

void
PartitionedBank::renormalizeStamps()
{
    std::vector<TagRecord *> order;
    order.reserve(ways);
    for (std::uint32_t s = 0; s < sets; s++) {
        order.clear();
        TagRecord *set = setBase(s);
        for (std::uint32_t w = 0; w < ways; w++) {
            if (set[w].stamp != 0)
                order.push_back(&set[w]);
        }
        std::sort(order.begin(), order.end(),
                  [](const TagRecord *a, const TagRecord *b) {
                      return a->stamp < b->stamp;
                  });
        for (std::size_t i = 0; i < order.size(); i++)
            order[i]->stamp = static_cast<std::uint32_t>(i + 1);
    }
    // Every renumbered stamp is at most `ways`.
    lruClock = ways;
}

void
PartitionedBank::startClockAt(std::uint32_t stamp)
{
    cdcs_assert(stamp >= lruClock, "the LRU clock never runs backwards");
    lruClock = stamp;
}

std::uint32_t
PartitionedBank::pickVictim(const TagRecord *set) const
{
    // Victim priority: (1) LRU line of an over-budget VC — including
    // the inserting VC itself once it exceeds its own target, which is
    // what keeps unallocated capacity unused (Sec. IV-C); (2) the first
    // invalid way (partitions still growing toward their targets);
    // (3) the set's global LRU (set-level skew with all VCs at
    // target). Valid stamps are distinct, so the argmin is unique
    // except among invalid ways, where the strict compare keeps the
    // first.
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < ways; w++) {
        const TagRecord &rec = set[w];
        const std::uint64_t cls =
            rec.stamp == 0 ? 1 : (vcOverBudget[rec.vc] != 0 ? 0 : 2);
        const std::uint64_t key = cls << 32 | rec.stamp;
        if (key < best) {
            best = key;
            victim = w;
        }
    }
    return victim;
}

std::uint32_t
PartitionedBank::pickOwnVictim(const TagRecord *set, VcId vc) const
{
    constexpr std::uint64_t none = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t best = none;
    std::uint32_t victim = ways;
    for (std::uint32_t w = 0; w < ways; w++) {
        const TagRecord &rec = set[w];
        const std::uint64_t key =
            rec.stamp != 0 && rec.vc == vc ? rec.stamp : none;
        if (key < best) {
            best = key;
            victim = w;
        }
    }
    return victim;
}

bool
PartitionedBank::atTarget(VcId vc) const
{
    return vcTarget[vc] != unmanagedTarget &&
        vcOccupancy[vc] >= vcTarget[vc];
}

void
PartitionedBank::dropLine(TagRecord &rec)
{
    cdcs_assert(vcOccupancy[rec.vc] > 0,
                "eviction from VC with zero occupancy");
    vcOccupancy[rec.vc]--;
    updateOverBudget(rec.vc);
    totalValid--;
    rec.stamp = 0;
}

bool
PartitionedBank::probeHit(LineAddr addr, VcId vc, TileId core)
{
    TagRecord *rec = find(addr);
    if (rec == nullptr)
        return false;
    cdcs_assert(rec->vc == vc, "line owned by a different VC");
    rec->stamp = touch();
    rec->sharers |= 1ull << (core % 64);
    return true;
}

bool
PartitionedBank::contains(LineAddr addr) const
{
    return find(addr) != nullptr;
}

BankAccessResult
PartitionedBank::insertLine(LineAddr addr, VcId vc,
                            std::uint64_t sharers)
{
    growTables(vc);
    BankAccessResult res;
    TagRecord *set = setBase(setOf(addr));

    std::uint32_t way;
    if (atTarget(vc)) {
        // Vantage churn containment: a partition at its target can
        // only replace its own lines; if it owns none in this set,
        // the fill is dropped rather than displacing another VC.
        way = pickOwnVictim(set, vc);
        if (way >= ways) {
            res.bypassed = true;
            return res;
        }
    } else {
        way = pickVictim(set);
    }

    TagRecord &rec = set[way];
    if (rec.stamp != 0) {
        res.evicted = true;
        res.evictedAddr = rec.addr;
        res.evictedVc = rec.vc;
        res.evictedSharers = rec.sharers;
        dropLine(rec);
    }
    rec.addr = addr;
    rec.sharers = sharers;
    rec.vc = vc;
    rec.stamp = touch();
    vcOccupancy[vc]++;
    updateOverBudget(vc);
    totalValid++;
    return res;
}

BankAccessResult
PartitionedBank::fill(LineAddr addr, VcId vc, TileId core)
{
    return insertLine(addr, vc, 1ull << (core % 64));
}

BankAccessResult
PartitionedBank::access(LineAddr addr, VcId vc, TileId core)
{
    if (probeHit(addr, vc, core)) {
        BankAccessResult res;
        res.hit = true;
        return res;
    }
    return fill(addr, vc, core);
}

bool
PartitionedBank::extractForMove(LineAddr addr, CacheLine &out)
{
    TagRecord *rec = find(addr);
    if (rec == nullptr)
        return false;
    out = {rec->addr, rec->vc, rec->sharers};
    dropLine(*rec);
    return true;
}

BankAccessResult
PartitionedBank::installMoved(const CacheLine &moved, VcId vc)
{
    BankAccessResult res = insertLine(moved.addr, vc, moved.sharers);
    if (res.bypassed) {
        // The moved line was dropped at its destination; report its
        // sharers so the caller can account the L2 invalidations.
        res.evictedAddr = moved.addr;
        res.evictedVc = moved.vc;
        res.evictedSharers = moved.sharers;
    }
    return res;
}

bool
PartitionedBank::invalidateLine(LineAddr addr)
{
    TagRecord *rec = find(addr);
    if (rec == nullptr)
        return false;
    dropLine(*rec);
    return true;
}

void
PartitionedBank::setTarget(VcId vc, std::uint64_t target_lines)
{
    growTables(vc);
    vcTarget[vc] = target_lines;
    updateOverBudget(vc);
}

void
PartitionedBank::clearTargets()
{
    std::fill(vcTarget.begin(), vcTarget.end(), unmanagedTarget);
    std::fill(vcOverBudget.begin(), vcOverBudget.end(), 0);
}

std::uint64_t
PartitionedBank::occupancy(VcId vc) const
{
    return vc < vcOccupancy.size() ? vcOccupancy[vc] : 0;
}

std::uint64_t
PartitionedBank::target(VcId vc) const
{
    return vc < vcTarget.size() ? vcTarget[vc] : unmanagedTarget;
}

void
PartitionedBank::invalidateAll()
{
    for (TagRecord &rec : records)
        rec.stamp = 0;
    std::fill(vcOccupancy.begin(), vcOccupancy.end(), 0);
    std::fill(vcOverBudget.begin(), vcOverBudget.end(), 0);
    totalValid = 0;
    walkCursor = 0;
}

} // namespace cdcs
