/**
 * @file
 * A deliberately naive reference model of PartitionedBank, plus a
 * seeded random driver that runs the model and a real bank through
 * the same operations and asserts they agree after every step.
 *
 * The model keeps, per set, a vector of ways and a std::list recency
 * order (front = MRU), and spells the Vantage victim priority out step
 * by step. It shares nothing with the bank but the set-index hash, so
 * a packing, stamp or victim-selection bug in the bank shows up as a
 * mismatch here.
 */

#ifndef CDCS_TESTS_CACHE_REFERENCE_BANK_HH
#define CDCS_TESTS_CACHE_REFERENCE_BANK_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <vector>

#include "cache/partitioned_bank.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace cdcs
{
namespace test
{

class ReferenceBank
{
  public:
    struct Way
    {
        bool valid = false;
        LineAddr addr = 0;
        VcId vc = invalidVc;
        std::uint64_t sharers = 0;
    };

    ReferenceBank(std::uint64_t num_lines, std::uint32_t num_ways,
                  std::uint64_t hash_seed = 0xBA4C0DE)
        : seed(hash_seed),
          sets(num_lines / num_ways, Set{std::vector<Way>(num_ways), {}})
    {
    }

    std::uint32_t numSets() const
    {
        return static_cast<std::uint32_t>(sets.size());
    }

    std::uint32_t
    setOf(LineAddr addr) const
    {
        return static_cast<std::uint32_t>(mix64(addr ^ seed) &
                                          (sets.size() - 1));
    }

    bool
    contains(LineAddr addr) const
    {
        for (const Way &way : sets[setOf(addr)].ways) {
            if (way.valid && way.addr == addr)
                return true;
        }
        return false;
    }

    bool
    probeHit(LineAddr addr, VcId /*vc*/, TileId core)
    {
        Set &set = sets[setOf(addr)];
        const int w = findWay(set, addr);
        if (w < 0)
            return false;
        makeMru(set, static_cast<std::uint32_t>(w));
        set.ways[w].sharers |= 1ull << (core % 64);
        return true;
    }

    BankAccessResult
    fill(LineAddr addr, VcId vc, TileId core)
    {
        return insert(addr, vc, 1ull << (core % 64));
    }

    BankAccessResult
    access(LineAddr addr, VcId vc, TileId core)
    {
        if (probeHit(addr, vc, core)) {
            BankAccessResult res;
            res.hit = true;
            return res;
        }
        return fill(addr, vc, core);
    }

    bool
    extractForMove(LineAddr addr, CacheLine &out)
    {
        Set &set = sets[setOf(addr)];
        const int w = findWay(set, addr);
        if (w < 0)
            return false;
        const Way &way = set.ways[w];
        out.addr = way.addr;
        out.vc = way.vc;
        out.sharers = way.sharers;
        drop(set, static_cast<std::uint32_t>(w));
        return true;
    }

    BankAccessResult
    installMoved(const CacheLine &moved, VcId vc)
    {
        BankAccessResult res = insert(moved.addr, vc, moved.sharers);
        if (res.bypassed) {
            res.evictedAddr = moved.addr;
            res.evictedVc = moved.vc;
            res.evictedSharers = moved.sharers;
        }
        return res;
    }

    bool
    invalidateLine(LineAddr addr)
    {
        Set &set = sets[setOf(addr)];
        const int w = findWay(set, addr);
        if (w < 0)
            return false;
        drop(set, static_cast<std::uint32_t>(w));
        return true;
    }

    void setTarget(VcId vc, std::uint64_t lines) { targets[vc] = lines; }
    void clearTargets() { targets.clear(); }

    std::uint64_t
    occupancy(VcId vc) const
    {
        const auto it = occ.find(vc);
        return it == occ.end() ? 0 : it->second;
    }

    std::uint64_t
    target(VcId vc) const
    {
        const auto it = targets.find(vc);
        return it == targets.end() ? PartitionedBank::unmanagedTarget
                                   : it->second;
    }

    std::uint64_t totalOccupancy() const { return total; }

    template <typename Pred>
    bool
    walkInvalidate(std::uint32_t num_sets, Pred &&should_go,
                   std::uint64_t &invalidated)
    {
        return walk(num_sets, [&](Set &set, std::uint32_t w) {
            if (should_go(set.ways[w])) {
                drop(set, w);
                invalidated++;
            }
        });
    }

    template <typename Pred>
    bool
    walkCollect(std::uint32_t num_sets, Pred &&should_go,
                std::vector<CacheLine> &out)
    {
        return walk(num_sets, [&](Set &set, std::uint32_t w) {
            const Way &way = set.ways[w];
            if (should_go(way)) {
                CacheLine line;
                line.addr = way.addr;
                line.vc = way.vc;
                line.sharers = way.sharers;
                out.push_back(line);
                drop(set, w);
            }
        });
    }

    void resetWalk() { cursor = 0; }

  private:
    struct Set
    {
        std::vector<Way> ways;
        std::list<std::uint32_t> recency;  ///< Valid ways, MRU first.
    };

    static int
    findWay(const Set &set, LineAddr addr)
    {
        for (std::size_t w = 0; w < set.ways.size(); w++) {
            if (set.ways[w].valid && set.ways[w].addr == addr)
                return static_cast<int>(w);
        }
        return -1;
    }

    static void
    makeMru(Set &set, std::uint32_t w)
    {
        set.recency.remove(w);
        set.recency.push_front(w);
    }

    bool
    managed(VcId vc) const
    {
        return target(vc) != PartitionedBank::unmanagedTarget;
    }

    bool
    overBudget(VcId vc) const
    {
        return managed(vc) && occupancy(vc) > target(vc);
    }

    bool
    atTarget(VcId vc) const
    {
        return managed(vc) && occupancy(vc) >= target(vc);
    }

    void
    drop(Set &set, std::uint32_t w)
    {
        Way &way = set.ways[w];
        occ[way.vc]--;
        total--;
        way.valid = false;
        set.recency.remove(w);
    }

    BankAccessResult
    insert(LineAddr addr, VcId vc, std::uint64_t sharers)
    {
        BankAccessResult res;
        Set &set = sets[setOf(addr)];
        int victim = -1;
        if (atTarget(vc)) {
            // At target: only the VC's own LRU line may go; with none
            // in this set the fill is dropped.
            for (auto it = set.recency.rbegin(); it != set.recency.rend();
                 ++it) {
                if (set.ways[*it].vc == vc) {
                    victim = static_cast<int>(*it);
                    break;
                }
            }
            if (victim < 0) {
                res.bypassed = true;
                return res;
            }
        } else {
            // Step 1: the least recently used line of an over-budget VC.
            for (auto it = set.recency.rbegin(); it != set.recency.rend();
                 ++it) {
                if (overBudget(set.ways[*it].vc)) {
                    victim = static_cast<int>(*it);
                    break;
                }
            }
            // Step 2: the first invalid way.
            for (std::size_t w = 0; victim < 0 && w < set.ways.size(); w++) {
                if (!set.ways[w].valid)
                    victim = static_cast<int>(w);
            }
            // Step 3: the set's least recently used line.
            if (victim < 0)
                victim = static_cast<int>(set.recency.back());
        }
        const auto v = static_cast<std::uint32_t>(victim);
        if (set.ways[v].valid) {
            res.evicted = true;
            res.evictedAddr = set.ways[v].addr;
            res.evictedVc = set.ways[v].vc;
            res.evictedSharers = set.ways[v].sharers;
            drop(set, v);
        }
        set.ways[v] = Way{true, addr, vc, sharers};
        occ[vc]++;
        total++;
        set.recency.push_front(v);
        return res;
    }

    template <typename Visit>
    bool
    walk(std::uint32_t num_sets, Visit &&visit)
    {
        for (std::uint32_t i = 0; i < num_sets; i++) {
            if (cursor >= sets.size()) {
                cursor = 0;
                return true;
            }
            Set &set = sets[cursor];
            for (std::uint32_t w = 0; w < set.ways.size(); w++) {
                if (set.ways[w].valid)
                    visit(set, w);
            }
            cursor++;
        }
        if (cursor >= sets.size()) {
            cursor = 0;
            return true;
        }
        return false;
    }

    std::uint64_t seed;
    std::vector<Set> sets;
    std::map<VcId, std::uint64_t> occ;
    std::map<VcId, std::uint64_t> targets;
    std::uint64_t total = 0;
    std::size_t cursor = 0;
};

inline ::testing::AssertionResult
sameResult(const BankAccessResult &got, const BankAccessResult &want)
{
    if (got.hit != want.hit || got.evicted != want.evicted ||
        got.bypassed != want.bypassed ||
        got.evictedAddr != want.evictedAddr ||
        got.evictedVc != want.evictedVc ||
        got.evictedSharers != want.evictedSharers) {
        return ::testing::AssertionFailure()
            << "bank {hit " << got.hit << ", evicted " << got.evicted
            << ", bypassed " << got.bypassed << ", addr "
            << got.evictedAddr << ", vc " << got.evictedVc
            << ", sharers " << got.evictedSharers << "} vs reference {hit "
            << want.hit << ", evicted " << want.evicted << ", bypassed "
            << want.bypassed << ", addr " << want.evictedAddr << ", vc "
            << want.evictedVc << ", sharers " << want.evictedSharers
            << "}";
    }
    return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult
sameLines(const std::vector<CacheLine> &got,
          const std::vector<CacheLine> &want)
{
    if (got.size() != want.size()) {
        return ::testing::AssertionFailure()
            << got.size() << " lines vs reference " << want.size();
    }
    for (std::size_t i = 0; i < got.size(); i++) {
        if (got[i].addr != want[i].addr || got[i].vc != want[i].vc ||
            got[i].sharers != want[i].sharers) {
            return ::testing::AssertionFailure()
                << "line " << i << ": {" << got[i].addr << ", "
                << got[i].vc << ", " << got[i].sharers
                << "} vs reference {" << want[i].addr << ", "
                << want[i].vc << ", " << want[i].sharers << "}";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Every line of a bank (or model), in set/way order; empties it. */
template <typename Bank>
std::vector<CacheLine>
drainContents(Bank &bank)
{
    std::vector<CacheLine> out;
    bank.resetWalk();
    bank.walkCollect(
        bank.numSets(), [](const auto &) { return true; }, out);
    return out;
}

/**
 * Drive `bank` and `ref` (same geometry, empty) through `ops` seeded
 * random operations over `num_vcs` VCs and assert they agree after
 * every one. `before_op(i)` runs before operation i (a hook for
 * seams such as starting the LRU clock near its limit).
 */
inline void
driveBoth(PartitionedBank &bank, ReferenceBank &ref, std::uint64_t seed,
          int ops, int num_vcs,
          const std::function<void(int)> &before_op = {})
{
    Rng rng(seed);
    const std::uint64_t lines = bank.numLines();
    const std::uint64_t footprint = lines * 3 / num_vcs + 1;
    // Lines taken out by extractForMove/walkCollect, waiting to be
    // reinstalled with installMoved.
    std::vector<CacheLine> pending;
    auto random_line = [&](VcId vc) {
        return (static_cast<LineAddr>(vc) << 32) | rng.below(footprint);
    };
    for (int i = 0; i < ops; i++) {
        SCOPED_TRACE(::testing::Message() << "operation " << i);
        if (before_op)
            before_op(i);
        const auto vc = static_cast<VcId>(rng.below(num_vcs));
        const LineAddr addr = random_line(vc);
        const auto core = static_cast<TileId>(rng.below(80));
        const std::uint64_t op = rng.below(100);
        if (op < 40) {
            ASSERT_TRUE(sameResult(bank.access(addr, vc, core),
                                   ref.access(addr, vc, core)));
        } else if (op < 60) {
            const bool hit = bank.probeHit(addr, vc, core);
            ASSERT_EQ(hit, ref.probeHit(addr, vc, core));
            if (!hit) {
                ASSERT_TRUE(sameResult(bank.fill(addr, vc, core),
                                       ref.fill(addr, vc, core)));
            }
        } else if (op < 67) {
            const std::uint64_t t = rng.chance(0.2)
                ? PartitionedBank::unmanagedTarget
                : rng.below(lines * 2 / num_vcs + 1);
            bank.setTarget(vc, t);
            ref.setTarget(vc, t);
        } else if (op < 68) {
            bank.clearTargets();
            ref.clearTargets();
        } else if (op < 76) {
            CacheLine got, want;
            const bool present = bank.extractForMove(addr, got);
            ASSERT_EQ(present, ref.extractForMove(addr, want));
            if (present) {
                ASSERT_TRUE(sameLines({got}, {want}));
                pending.push_back(got);
            }
        } else if (op < 86) {
            if (pending.empty())
                continue;
            const std::size_t k = rng.below(pending.size());
            const CacheLine moved = pending[k];
            pending.erase(pending.begin() + static_cast<long>(k));
            // A line that came back by a fill meanwhile stays put.
            if (ref.contains(moved.addr))
                continue;
            ASSERT_TRUE(sameResult(bank.installMoved(moved, moved.vc),
                                   ref.installMoved(moved, moved.vc)));
        } else if (op < 90) {
            ASSERT_EQ(bank.invalidateLine(addr), ref.invalidateLine(addr));
        } else if (op < 99) {
            // A partial walk: a few sets with a record-typed predicate.
            const auto num_sets =
                static_cast<std::uint32_t>(rng.below(bank.numSets() / 4 + 2));
            const auto victim_vc = static_cast<VcId>(rng.below(num_vcs));
            const std::uint64_t parity = rng.below(2);
            auto should_go = [victim_vc, parity](const auto &line) {
                return line.vc == victim_vc && (line.addr & 1) == parity;
            };
            if (rng.chance(0.5)) {
                std::uint64_t got = 0, want = 0;
                ASSERT_EQ(bank.walkInvalidate(num_sets, should_go, got),
                          ref.walkInvalidate(num_sets, should_go, want));
                ASSERT_EQ(got, want);
            } else {
                std::vector<CacheLine> got, want;
                ASSERT_EQ(bank.walkCollect(num_sets, should_go, got),
                          ref.walkCollect(num_sets, should_go, want));
                ASSERT_TRUE(sameLines(got, want));
                pending.insert(pending.end(), got.begin(), got.end());
            }
        } else {
            bank.resetWalk();
            ref.resetWalk();
        }
        ASSERT_EQ(bank.totalOccupancy(), ref.totalOccupancy());
        for (int d = 0; d < num_vcs; d++) {
            const auto v = static_cast<VcId>(d);
            ASSERT_EQ(bank.occupancy(v), ref.occupancy(v)) << "vc " << d;
            ASSERT_EQ(bank.target(v), ref.target(v)) << "vc " << d;
        }
    }
    const std::uint64_t resident = bank.totalOccupancy();
    const std::vector<CacheLine> got = drainContents(bank);
    ASSERT_TRUE(sameLines(got, drainContents(ref)));
    ASSERT_EQ(got.size(), resident);
    ASSERT_EQ(bank.totalOccupancy(), 0u);
}

} // namespace test
} // namespace cdcs

#endif // CDCS_TESTS_CACHE_REFERENCE_BANK_HH
