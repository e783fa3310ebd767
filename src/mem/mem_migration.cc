#include "mem/mem_migration.hh"

#include <algorithm>

#include "common/types.hh"
#include "obs/stat_registry.hh"

namespace cdcs
{

namespace
{

/// Pages migrated (controller re-pins + tier moves) per epoch.
const StatId kMemMigrations = StatRegistry::counter("mem.migrations");
/// Pages promoted far -> near per epoch.
const StatId kTierPromotions =
    StatRegistry::counter("mem.tier_promotions");
/// Pages demoted near -> far per epoch.
const StatId kTierDemotions =
    StatRegistry::counter("mem.tier_demotions");

} // anonymous namespace

void
recordPageMigration(NocModel &noc, const Mesh &topo, int src_ctrl,
                    MemTier src_tier, int dst_ctrl, MemTier dst_tier,
                    std::uint64_t &migrated)
{
    const std::uint32_t page_flits =
        linesPerPage * topo.config().dataFlits();
    const TileId dst_tile = topo.memCtrlTile(dst_ctrl);
    noc.addMemResponse(TrafficClass::Other, src_ctrl, dst_tile,
                       page_flits, src_tier);
    noc.addMemTraffic(TrafficClass::Other, dst_tile, dst_ctrl,
                      page_flits, dst_tier);
    migrated++;
    StatRegistry::add(kMemMigrations);
    if (src_tier == MemTier::Far && dst_tier == MemTier::Near)
        StatRegistry::add(kTierPromotions);
    else if (src_tier == MemTier::Near && dst_tier == MemTier::Far)
        StatRegistry::add(kTierDemotions);
}

std::vector<std::size_t>
rowBudgetSelect(const std::vector<std::uint64_t> &pages,
                const std::vector<double> &weights, int row_budget)
{
    struct Row
    {
        std::uint64_t id = 0;
        double weight = 0.0;
        std::vector<std::size_t> members; ///< In candidate order.
    };
    // Group in candidate order; the first-seen order of rows doesn't
    // matter because the sort below orders on (weight, id) only.
    std::vector<Row> rows;
    for (std::size_t i = 0; i < pages.size(); i++) {
        const std::uint64_t row_id = dramRowOf(pages[i]);
        Row *row = nullptr;
        for (Row &r : rows) {
            if (r.id == row_id) {
                row = &r;
                break;
            }
        }
        if (row == nullptr) {
            rows.push_back(Row{row_id, 0.0, {}});
            row = &rows.back();
        }
        row->weight += weights[i];
        row->members.push_back(i);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) {
                  if (a.weight != b.weight)
                      return a.weight > b.weight;
                  return a.id < b.id;
              });
    if (rows.size() > static_cast<std::size_t>(
                          row_budget < 0 ? 0 : row_budget))
        rows.resize(static_cast<std::size_t>(
            row_budget < 0 ? 0 : row_budget));
    std::vector<std::size_t> kept;
    for (const Row &row : rows)
        kept.insert(kept.end(), row.members.begin(),
                    row.members.end());
    return kept;
}

} // namespace cdcs
