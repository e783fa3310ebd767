/**
 * @file
 * An LLC bank whose capacity is divided among virtual caches at
 * cache-line granularity, in the spirit of Vantage partitioning, over
 * a compact set-local tag array.
 *
 * Each virtual cache (VC) mapped to the bank has a capacity target; the
 * bank tracks per-VC occupancy and, on insertion, preferentially evicts
 * the LRU candidate belonging to an over-budget VC. This reproduces
 * Vantage's steady-state behaviour (actual occupancies track targets at
 * line granularity, partitions shrink smoothly when targets drop)
 * without modeling its aperture/demotion machinery.
 *
 * Capacity left unallocated (sum of targets below bank size) is simply
 * never filled: a VC inserting beyond its target becomes the preferred
 * victim itself, so stale ways decay instead of being reused. This is
 * what lets CDCS "leave capacity unused" when extra capacity would hurt
 * on-chip latency (Sec. IV-C).
 *
 * Storage: each way is one 24 B TagRecord (address, sharers, a 32-bit
 * LRU stamp that is 0 for an invalid way, owning VC), so a 16-way set
 * spans six host cache lines and probe, victim choice and install all
 * work on the same records. Victim choice is one argmin over a packed
 * (class, stamp) key; a per-VC over-budget flag replaces per-way
 * occupancy and target lookups. The LRU clock is 32 bits: before it
 * would wrap, the stamps of every set are renumbered by rank, which
 * keeps every set's recency order. ARCHITECTURE.md ("LLC tag array")
 * has the details.
 */

#ifndef CDCS_CACHE_PARTITIONED_BANK_HH
#define CDCS_CACHE_PARTITIONED_BANK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace cdcs
{

/**
 * A line as it leaves one bank for another: the value moved by demand
 * moves (extractForMove/installMoved) and collected by walkCollect.
 */
struct CacheLine
{
    LineAddr addr = 0;
    VcId vc = invalidVc;
    std::uint64_t sharers = 0;  ///< Bitmask of cores with an L2 copy.
};

/**
 * One way of the tag array as stored. The sharer mask sits inline so
 * a hit (which records the requesting core) touches one region.
 */
struct TagRecord
{
    LineAddr addr = 0;          ///< Full line address (simulation only).
    std::uint64_t sharers = 0;  ///< Bitmask of cores with an L2 copy.
    std::uint32_t stamp = 0;    ///< LRU stamp; 0 marks an invalid way.
    VcId vc = 0;                ///< Owning VC (stale when invalid).
};

static_assert(sizeof(TagRecord) == 24, "tag record must stay 24 bytes");

/** Result of a bank access. */
struct BankAccessResult
{
    bool hit = false;
    /// Valid line was evicted to make room (miss fills only).
    bool evicted = false;
    /// The fill was dropped: the VC is at its target and owns no
    /// replaceable line in the set (Vantage churn containment — an
    /// over-budget partition can only victimize itself).
    bool bypassed = false;
    /// Evicted line's metadata (valid when evicted is true).
    LineAddr evictedAddr = 0;
    VcId evictedVc = invalidVc;
    std::uint64_t evictedSharers = 0;
};

/**
 * Partitioned LLC bank. VC ids index the per-VC occupancy/target
 * tables, which are sized up on demand; hardware would cap partitions
 * per bank (64 in the paper), which the reconfiguration runtime
 * respects when building placements.
 */
class PartitionedBank
{
  public:
    /**
     * Target value meaning "unmanaged": the VC is never treated as
     * over-budget. This is the default for VCs that have not been
     * given an explicit target (unpartitioned schemes like S-NUCA and
     * R-NUCA, and the bootstrap configuration before the first
     * reconfiguration), making the bank behave as a plain LRU cache.
     */
    static constexpr std::uint64_t unmanagedTarget =
        ~std::uint64_t{0};

    /**
     * @param num_lines Bank capacity in lines.
     * @param num_ways Associativity.
     * @param hash_seed Seed decorrelating the set-index hash from the
     *        hashes used elsewhere (bank selection, monitors).
     */
    PartitionedBank(std::uint64_t num_lines, std::uint32_t num_ways,
                    std::uint64_t hash_seed = 0xBA4C0DE);

    std::uint64_t numLines() const { return records.size(); }
    std::uint32_t numSets() const { return sets; }
    std::uint32_t numWays() const { return ways; }

    /** Set index for a line address. */
    std::uint32_t
    setOf(LineAddr addr) const
    {
        return static_cast<std::uint32_t>(mix64(addr ^ seed) & (sets - 1));
    }

    /**
     * Probe for a line; on a hit, update LRU and record the core as a
     * sharer. Does not fill on a miss (the move protocol may need to
     * chase the line in its old bank first).
     *
     * @return True on hit.
     */
    bool probeHit(LineAddr addr, VcId vc, TileId core);

    /** True if the line is resident; touches no replacement state. */
    bool contains(LineAddr addr) const;

    /**
     * Fill a line after a miss (from memory). Picks a victim per the
     * partitioning policy and may evict.
     *
     * @param addr Line address.
     * @param vc Virtual cache the line belongs to.
     * @param core Requesting core (recorded as a sharer).
     * @return Eviction information.
     */
    BankAccessResult fill(LineAddr addr, VcId vc, TileId core);

    /**
     * Convenience probe-then-fill access (tests and simple callers).
     * @return Hit/miss and eviction information.
     */
    BankAccessResult access(LineAddr addr, VcId vc, TileId core);

    /**
     * Probe without filling; used by the demand-move protocol to check
     * the old bank. On hit the line is invalidated and its metadata
     * returned (it moves to the new bank).
     *
     * @return True and metadata if the line was present.
     */
    bool extractForMove(LineAddr addr, CacheLine &out);

    /**
     * Install a line that migrated from another bank (demand move),
     * preserving its sharer set. May evict.
     */
    BankAccessResult installMoved(const CacheLine &moved, VcId vc);

    /** Invalidate one line if present. @return True if it was valid. */
    bool invalidateLine(LineAddr addr);

    /** Set the capacity target (in lines) of a VC. */
    void setTarget(VcId vc, std::uint64_t target_lines);

    /** Clear all targets (start of a reconfiguration). */
    void clearTargets();

    /** Current occupancy of a VC in this bank, in lines. */
    std::uint64_t occupancy(VcId vc) const;

    /** Current target of a VC in this bank, in lines. */
    std::uint64_t target(VcId vc) const;

    /** Total valid lines in the bank. */
    std::uint64_t totalOccupancy() const { return totalValid; }

    /**
     * Walk `num_sets` sets starting at the internal walk cursor and
     * invalidate every valid line for which `should_go(const
     * TagRecord &)` returns true. Models the background/bulk
     * invalidation walkers.
     *
     * @param num_sets Sets to examine in this step.
     * @param should_go Predicate deciding if a line must leave; it
     *        sees the stored record, not a copy.
     * @param invalidated Incremented per invalidated line.
     * @return True when the cursor wrapped (walk complete).
     */
    template <typename Pred>
    bool
    walkInvalidate(std::uint32_t num_sets, Pred &&should_go,
                   std::uint64_t &invalidated)
    {
        return walkSets(num_sets, [&](TagRecord &rec) {
            if (should_go(static_cast<const TagRecord &>(rec))) {
                dropLine(rec);
                invalidated++;
            }
        });
    }

    /**
     * Like walkInvalidate, but extracts matching lines into `out` (in
     * set/way order, with their metadata) instead of dropping them, so
     * the caller can reinstall them elsewhere (background moves,
     * Sec. IV-H).
     *
     * @return True when the cursor wrapped (walk complete).
     */
    template <typename Pred>
    bool
    walkCollect(std::uint32_t num_sets, Pred &&should_go,
                std::vector<CacheLine> &out)
    {
        return walkSets(num_sets, [&](TagRecord &rec) {
            if (should_go(static_cast<const TagRecord &>(rec))) {
                out.push_back({rec.addr, rec.vc, rec.sharers});
                dropLine(rec);
            }
        });
    }

    /** Reset the walk cursor to set 0. */
    void resetWalk() { walkCursor = 0; }

    /** Invalidate all lines (used by tests and full resets). */
    void invalidateAll();

    /**
     * Test seam: advance the LRU clock to `stamp` (never backwards) so
     * a short test reaches the 32-bit wrap and its renormalisation.
     */
    void startClockAt(std::uint32_t stamp);

  private:
    /** First record of a set. */
    TagRecord *
    setBase(std::uint32_t set)
    {
        return &records[static_cast<std::size_t>(set) * ways];
    }
    const TagRecord *
    setBase(std::uint32_t set) const
    {
        return &records[static_cast<std::size_t>(set) * ways];
    }

    /** The valid record holding `addr`, or nullptr. */
    TagRecord *find(LineAddr addr);
    const TagRecord *find(LineAddr addr) const;

    /** Advance the LRU clock, renormalising first if it would wrap. */
    std::uint32_t touch();

    /**
     * Renumber every set's valid stamps 1..k by rank (recency order
     * is only ever compared within a set) and rewind the clock.
     */
    void renormalizeStamps();

    /** Ensure per-VC tables can index vc. */
    void growTables(VcId vc);

    /** Recompute a VC's over-budget flag (occupancy > target). */
    void
    updateOverBudget(VcId vc)
    {
        vcOverBudget[vc] = vcOccupancy[vc] > vcTarget[vc] ? 1 : 0;
    }

    /**
     * Victim way in a set for an insertion by a VC below its target:
     * the argmin of key = class << 32 | stamp, where class is 0 for a
     * line of an over-budget VC, 1 for an invalid way (stamp 0, so the
     * first one wins) and 2 for any other valid line.
     */
    std::uint32_t pickVictim(const TagRecord *set) const;

    /** LRU way holding one of `vc`'s own lines (numWays if none). */
    std::uint32_t pickOwnVictim(const TagRecord *set, VcId vc) const;

    /** True when the VC is managed and at/over its target. */
    bool atTarget(VcId vc) const;

    /** Shared insert path for fills and moved-in lines. */
    BankAccessResult insertLine(LineAddr addr, VcId vc,
                                std::uint64_t sharers);

    /** Invalidate a valid record and update the occupancy counts. */
    void dropLine(TagRecord &rec);

    /**
     * Advance the walk cursor over up to `num_sets` sets, calling
     * `visit(TagRecord &)` on each valid record.
     * @return True when the cursor wrapped (walk complete).
     */
    template <typename Visit>
    bool
    walkSets(std::uint32_t num_sets, Visit &&visit)
    {
        for (std::uint32_t i = 0; i < num_sets && walkCursor < sets;
             i++, walkCursor++) {
            TagRecord *set = setBase(walkCursor);
            for (std::uint32_t w = 0; w < ways; w++) {
                if (set[w].stamp != 0)
                    visit(set[w]);
            }
        }
        if (walkCursor >= sets) {
            walkCursor = 0;
            return true;
        }
        return false;
    }

    std::uint32_t sets;
    std::uint32_t ways;
    std::uint64_t seed;
    std::vector<TagRecord> records;
    std::vector<std::uint64_t> vcOccupancy;
    std::vector<std::uint64_t> vcTarget;
    /// vcOccupancy[vc] > vcTarget[vc], kept current on every change.
    std::vector<std::uint8_t> vcOverBudget;
    std::uint64_t totalValid = 0;
    std::uint32_t lruClock = 0;
    std::uint32_t walkCursor = 0;
};

} // namespace cdcs

#endif // CDCS_CACHE_PARTITIONED_BANK_HH
