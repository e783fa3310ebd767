/**
 * @file
 * Memory-tier vocabulary of the two-level placement decision. The
 * access path asks the placement layer where a line lives as a
 * MemPlacement — which controller fronts it (the classic
 * page-to-controller mapping) and which capacity tier behind that
 * controller serves it (near DRAM, or the far / CXL-style pool when
 * one is configured). With no far tier every placement pins
 * MemTier::Near and the decision collapses to the legacy
 * controller-only mapping, bit for bit.
 *
 * Also defines the DRAM-row grouping the migration throttles use:
 * a row is a run of 2^dramRowShift consecutive pages, and migration
 * budgets are spent in rows, not pages, so the copy engine streams
 * whole row-buffer hits instead of scattering single-page bursts.
 */

#ifndef CDCS_MEM_MEM_TIER_HH
#define CDCS_MEM_MEM_TIER_HH

#include <cstddef>
#include <cstdint>

namespace cdcs
{

/** Capacity tier behind a memory controller. */
enum class MemTier : std::uint8_t
{
    Near, ///< Local DRAM: cfg.memLatency, the near channel pool.
    Far   ///< Far pool: cfg.farMemLatency, its own channels/links.
};

/** Number of tiers: the extent of every per-tier array. */
constexpr std::size_t numMemTiers = 2;

/** Index of a tier in a per-tier array (Near = 0, Far = 1). */
constexpr std::size_t
tierIndex(MemTier tier)
{
    return static_cast<std::size_t>(tier);
}

/** The two-level placement decision for one line. */
struct MemPlacement
{
    /** Controller fronting the line (page-to-controller mapping). */
    int ctrl = 0;
    /** Tier behind that controller serving the line. */
    MemTier tier = MemTier::Near;
};

/**
 * Pages per DRAM row group, as a shift: 4 consecutive 4 KB pages
 * share a row buffer (a 16 KB row). Migration candidates in the same
 * row are moved together; budgets count rows.
 */
constexpr std::uint32_t dramRowShift = 2;

/** Row group of a page (pages >> dramRowShift share a row buffer). */
inline std::uint64_t
dramRowOf(std::uint64_t page)
{
    return page >> dramRowShift;
}

} // namespace cdcs

#endif // CDCS_MEM_MEM_TIER_HH
