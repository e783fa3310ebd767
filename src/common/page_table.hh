/**
 * @file
 * PageTable: the per-page state of the page-grained policies (R-NUCA's
 * classifier, the memory-placement pins, the tiering residency maps),
 * keyed by page number (`line >> pageLineShift`).
 *
 * A line address is `vc << 40 | offset` (WorkloadMix::lineIn), so a
 * page splits into its VC and a page offset inside that VC. Each VC
 * owns a directory of `chunkPages`-slot chunks, allocated on first
 * touch, each with an occupancy bitmap: a dense footprint fills its
 * chunks, and a sparse overlay pays only for the chunks it lands in.
 * Chunks never move, so an entry's address is stable for the table's
 * life. forEach visits pages in ascending page order by construction,
 * so epoch loops over the table are deterministic.
 */

#ifndef CDCS_COMMON_PAGE_TABLE_HH
#define CDCS_COMMON_PAGE_TABLE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace cdcs
{

/** Page-ordered map from page number to a value-initialized T. */
template <typename T>
class PageTable
{
  public:
    /** Bits of a page number below its VC field. */
    static constexpr unsigned vcShift = 40 - pageLineShift;
    static constexpr unsigned chunkShift = 8;
    static constexpr std::uint64_t chunkPages = 1ull << chunkShift;

    /**
     * The entry of `page`, created on first touch, and whether this
     * call created it.
     */
    std::pair<T *, bool>
    tryEmplace(std::uint64_t page)
    {
        const std::uint64_t vc = page >> vcShift;
        cdcs_assert(vc <= std::numeric_limits<VcId>::max(),
                    "page outside the VC address space");
        if (vc >= vcs.size())
            vcs.resize(vc + 1);
        std::vector<std::unique_ptr<Chunk>> &dir = vcs[vc];
        const std::uint64_t c = (page & offsetMask) >> chunkShift;
        if (c >= dir.size())
            dir.resize(c + 1);
        if (dir[c] == nullptr)
            dir[c] = std::make_unique<Chunk>();
        const std::uint64_t slot = page & (chunkPages - 1);
        std::uint64_t &word = dir[c]->used[slot / 64];
        const std::uint64_t bit = 1ull << (slot % 64);
        const bool inserted = (word & bit) == 0;
        word |= bit;
        count += inserted ? 1 : 0;
        return {&dir[c]->slots[slot], inserted};
    }

    /** The entry of `page`, or nullptr if it was never touched. */
    const T *
    find(std::uint64_t page) const
    {
        const std::uint64_t vc = page >> vcShift;
        const std::uint64_t c = (page & offsetMask) >> chunkShift;
        if (vc >= vcs.size() || c >= vcs[vc].size() ||
            vcs[vc][c] == nullptr)
            return nullptr;
        const Chunk &chunk = *vcs[vc][c];
        const std::uint64_t slot = page & (chunkPages - 1);
        return ((chunk.used[slot / 64] >> (slot % 64)) & 1) != 0
            ? &chunk.slots[slot]
            : nullptr;
    }

    /** Pages created so far. */
    std::size_t size() const { return count; }

    /** Call fn(page, entry) for every page, in ascending page order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::uint64_t vc = 0; vc < vcs.size(); vc++) {
            for (std::uint64_t c = 0; c < vcs[vc].size(); c++) {
                if (vcs[vc][c] == nullptr)
                    continue;
                Chunk &chunk = *vcs[vc][c];
                const std::uint64_t base =
                    (vc << vcShift) | (c << chunkShift);
                for (std::uint64_t w = 0; w < chunk.used.size(); w++) {
                    for (std::uint64_t bits = chunk.used[w]; bits != 0;
                         bits &= bits - 1) {
                        const std::uint64_t slot = w * 64 +
                            static_cast<unsigned>(std::countr_zero(bits));
                        fn(base | slot, chunk.slots[slot]);
                    }
                }
            }
        }
    }

  private:
    static constexpr std::uint64_t offsetMask = (1ull << vcShift) - 1;

    struct Chunk
    {
        std::array<std::uint64_t, chunkPages / 64> used{};
        std::array<T, chunkPages> slots{};
    };

    /** Per-VC chunk directories, indexed by VC id. */
    std::vector<std::vector<std::unique_ptr<Chunk>>> vcs;
    std::size_t count = 0;
};

} // namespace cdcs

#endif // CDCS_COMMON_PAGE_TABLE_HH
